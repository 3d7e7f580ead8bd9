package repro.util

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel

/** Eager DataFrame materialization that severs the logical plan and the RDD
  * lineage.
  *
  * Iterative fixpoints (transitive closure, frontier expansion) must cut
  * their lineage every round, or the union plan and each round's task binary
  * grow without bound. Spark's `Dataset.localCheckpoint` keeps the child's
  * constraints and trips a constraint-rewrite bug when the checkpointed plans
  * are unioned (`key not found: src#...` in UnionBase.rewriteConstraints), so
  * we instead cache and local-checkpoint the RDD, force it, and rewrap it in a
  * fresh LogicalRDD with no inherited constraints.
  *
  * The returned frame's backing RDD stays cached; superseded rounds are
  * reclaimed by Spark's ContextCleaner once unreferenced.
  */
object MaterializeDF {

  def checkpoint(spark: SparkSession, df: DataFrame): DataFrame = {
    val rdd = df.rdd.persist(StorageLevel.MEMORY_AND_DISK)
    rdd.localCheckpoint()
    rdd.count() // force now so upstream lineage is never replayed
    spark.createDataFrame(rdd, df.schema)
  }
}
