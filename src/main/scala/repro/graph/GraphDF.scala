package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame views of a [[Graph]] and the reverse conversion.
  *
  * The public query API of every matcher in this repo is DataFrame-first
  * (`nodes(id, label)`, `edges(src, dst)` in; answer DataFrame out); the CSR
  * image is the driver-side in-memory form the paper's algorithms run on.
  */
object GraphDF {

  // Both frames parallelize driver arrays, so a task ships only its slice.
  def nodesDF(spark: SparkSession, g: Graph): DataFrame = {
    import spark.implicits._
    val names = g.labelNames
    spark.sparkContext.parallelize(g.labels.toIndexedSeq.zipWithIndex)
      .map { case (l, v) => (v.toLong, names(l)) }
      .toDF("id", "label")
  }

  def edgesDF(spark: SparkSession, g: Graph): DataFrame = {
    import spark.implicits._
    val packed = g.edgeIterator.map { case (u, v) => u.toLong << 32 | v }.toArray
    spark.sparkContext.parallelize(packed.toIndexedSeq)
      .map(e => (e >>> 32, e & 0xffffffffL))
      .toDF("src", "dst")
  }

  /** Builds the CSR image from `nodes(id, label)` / `edges(src, dst)`.
    * Node ids must be dense 0..n-1 longs (use [[nodesDF]]-shaped input).
    */
  def fromDF(nodes: DataFrame, edges: DataFrame): Graph = {
    val nodeRows = nodes.select(col("id").cast("long"), col("label").cast("string"))
      .collect().map(r => (r.getLong(0).toInt, r.getString(1)))
    val n = nodeRows.length
    require(nodeRows.map(_._1).toSet == (0 until n).toSet,
      "node ids must be dense 0..n-1")
    val labelNames = nodeRows.map(_._2).distinct.sorted
    val labelIdx = labelNames.zipWithIndex.toMap
    val labels = new Array[Int](n)
    nodeRows.foreach { case (id, l) => labels(id) = labelIdx(l) }
    val edgePairs = edges.select(col("src").cast("long"), col("dst").cast("long"))
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt))
    Graph.fromEdges(labels, labelNames, edgePairs)
  }
}
