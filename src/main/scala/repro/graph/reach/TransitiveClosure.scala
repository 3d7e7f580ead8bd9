package repro.graph.reach

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.Graph

/** Transitive closure materialization.
  *
  * The paper's Fig. 18(a) contrasts BFL's near-instant build with the cost of
  * materializing the full closure (needed by edge-only engines such as
  * GraphflowDB to answer reachability-edge queries). We provide:
  *   - a distributed semi-naive fixpoint over DataFrames (the Spark-idiomatic
  *     equivalent of the paper's Floyd–Warshall run, and what one would
  *     actually deploy), and
  *   - a driver-side exact closure for small graphs (oracle input).
  *
  * Pairs follow Def. 2.2 semantics: (u, v) present iff a path with >=1 edge
  * exists, so cyclic nodes appear paired with themselves.
  */
object TransitiveClosure {

  /** Distributed semi-naive closure: DataFrame (src, dst). */
  def dataframe(spark: SparkSession, edges: DataFrame, maxIterations: Int = 64): DataFrame =
    semiNaive(spark, edges.select(col("src"), col("dst")), edges, maxIterations)(_ => ())

  /** Semi-naive fixpoint: starting from the (src, dst) pairs of `seed`, joins
    * each round's new pairs with `edges` until no pair is added or
    * `maxIterations` rounds ran. `onRound` sees the accumulated pairs after
    * every round that grew them.
    *
    * Each round's delta and the accumulated pairs are eagerly materialized
    * via [[repro.util.MaterializeDF]]: the union lineage would otherwise grow
    * with the iteration count and re-evaluate the whole history. Honors the
    * cooperative deadline of [[repro.util.Timing]] so bench timeouts can stop
    * the fixpoint between rounds.
    */
  def semiNaive(spark: SparkSession, seed: DataFrame, edges: DataFrame, maxIterations: Int)
               (onRound: DataFrame => Unit): DataFrame = {
    var closure = repro.util.MaterializeDF.checkpoint(spark, seed.distinct())
    var delta = closure
    var iter = 0
    var converged = false
    while (!converged && iter < maxIterations) {
      repro.util.Timing.checkDeadline()
      val grown = delta.as("d")
        .join(edges.as("e"), col("d.dst") === col("e.src"))
        .select(col("d.src").as("src"), col("e.dst").as("dst"))
        .distinct()
      val next = repro.util.MaterializeDF.checkpoint(spark, grown.except(closure))
      if (next.isEmpty) converged = true
      else {
        closure = repro.util.MaterializeDF.checkpoint(spark, closure.unionByName(next).distinct())
        onRound(closure)
        delta = next
      }
      iter += 1
    }
    closure
  }

  /** Driver-side closure for small graphs: sorted (src, dst) pairs. */
  def pairs(g: Graph): Array[(Int, Int)] = {
    val ops = ReachOps(g)
    val all = Array.range(0, g.numNodes)
    val tr = ops.targeted(all)
    all.flatMap(u => tr.from(u).map(v => (u, v)))
  }
}
