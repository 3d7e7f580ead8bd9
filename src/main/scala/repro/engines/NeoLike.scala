package repro.engines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.graph.reach.TransitiveClosure
import repro.pattern.{Direct, Pattern, Reach}
import repro.util.Timing

/** Behavioural analogue of Neo4j's Cypher evaluation (paper §7.5).
  *
  * The paper characterizes Neo4j as a binary-join engine that is "not
  * optimized for complex graph pattern queries": no reachability index, no
  * candidate filtering, joins taken edge-at-a-time. Reachability edges are
  * answered the way the paper drives Neo4j — APOC-style iterative path
  * expansion — which here is a semi-naive frontier join over the edge
  * DataFrame until fixpoint.
  *
  * Input is pure DataFrames (`nodes(id,label)`, `edges(src,dst)`), matching
  * what a graph DBMS would see; no CSR image or driver index is used.
  */
object NeoLike {

  /** Counts occurrences of `p` over `nodes`/`edges`. Budget-guarded:
    * exceeding `budgetRows` in any intermediate raises SimulatedOOM.
    */
  def countMatches(spark: SparkSession, nodes: DataFrame, edges: DataFrame,
                   p: Pattern, budgetRows: Long = 20_000_000L,
                   maxExpandIters: Int = 30): Long = {
    val rels = p.edges.indices.map { ei =>
      Timing.checkDeadline()
      val e = p.edges(ei)
      val cFrom = p.colName(e.from); val cTo = p.colName(e.to)
      val base = e.kind match {
        case Direct => edges
        case Reach => expandReach(spark, edges,
          nodes.filter(col("label") === p.labels(e.from)),
          budgetRows, maxExpandIters)
      }
      base.as("e")
        .join(nodes.as("nf"), col("e.src") === col("nf.id"))
        .join(nodes.as("nt"), col("e.dst") === col("nt.id"))
        .filter(col("nf.label") === p.labels(e.from) && col("nt.label") === p.labels(e.to))
        .select(col("e.src").as(cFrom), col("e.dst").as(cTo))
    }
    // Naive binary joins in pattern-edge order — no join optimizer.
    var acc = rels.head.persist(StorageLevel.MEMORY_AND_DISK)
    var count = checkBudget(acc, budgetRows)
    rels.tail.foreach { r =>
      Timing.checkDeadline()
      val common = acc.columns.toSet.intersect(r.columns.toSet).toSeq
      val next = (if (common.nonEmpty) acc.join(r, common) else acc.crossJoin(r))
        .persist(StorageLevel.MEMORY_AND_DISK)
      count = checkBudget(next, budgetRows)
      acc.unpersist()
      acc = next
    }
    acc.unpersist()
    count
  }

  private def checkBudget(df: DataFrame, budgetRows: Long): Long = {
    val n = df.count()
    if (n > budgetRows)
      throw new Timing.SimulatedOOM(s"intermediate has $n rows > budget $budgetRows")
    n
  }

  /** APOC-style reachability expansion from the given start nodes: the
    * semi-naive frontier joins of [[TransitiveClosure.semiNaive]] seeded with
    * the start nodes' out-edges, budget-checked every round. Returns
    * (src, dst) pairs with a >=1-edge path.
    */
  def expandReach(spark: SparkSession, edges: DataFrame, startNodes: DataFrame,
                  budgetRows: Long, maxIters: Int): DataFrame = {
    val seed = edges.as("e")
      .join(startNodes.as("s"), col("e.src") === col("s.id"))
      .select(col("e.src").as("src"), col("e.dst").as("dst"))
    TransitiveClosure.semiNaive(spark, seed, edges, maxIters)(checkBudget(_, budgetRows))
  }
}
