package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{JM, TM}
import repro.core.{GM, SearchOrder}
import repro.engines.NeoLike
import repro.graph.GraphDF
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.Pattern
import repro.util.Timing
import repro.util.Timing.Outcome

/** One [[Timing.Outcome]]-producing runner per algorithm under test — the
  * bench tables are built from these.
  */
object QueryRunners {

  def gm(spark: SparkSession, ops: ReachOps, p: Pattern,
         order: SearchOrder.Strategy = SearchOrder.JO,
         timeoutSec: Double = BenchEnv.timeoutSec,
         limit: Long = BenchEnv.limit): Outcome =
    Timing.run(spark, timeoutSec) {
      GM.countMatches(spark, ops, p, GM.Config(order = order, limit = limit))._1
    }

  def gmConfigured(spark: SparkSession, ops: ReachOps, p: Pattern, cfg: GM.Config,
                   timeoutSec: Double = BenchEnv.timeoutSec): Outcome =
    Timing.run(spark, timeoutSec)(GM.countMatches(spark, ops, p, cfg)._1)

  def jm(spark: SparkSession, ops: ReachOps, p: Pattern,
         timeoutSec: Double = BenchEnv.timeoutSec,
         budgetRows: Long = BenchEnv.budgetRows): Outcome =
    Timing.run(spark, timeoutSec)(JM.countMatches(spark, ops, p, budgetRows))

  def tm(spark: SparkSession, ops: ReachOps, bfl: BFL, p: Pattern,
         timeoutSec: Double = BenchEnv.timeoutSec,
         limit: Long = BenchEnv.limit): Outcome =
    Timing.run(spark, timeoutSec)(TM.countMatches(ops, bfl, p, limit))

  def neo(spark: SparkSession, ops: ReachOps, p: Pattern,
          timeoutSec: Double = BenchEnv.timeoutSec,
          budgetRows: Long = BenchEnv.budgetRows): Outcome = {
    val nodes = GraphDF.nodesDF(spark, ops.g).cache()
    val edges = GraphDF.edgesDF(spark, ops.g).cache()
    try Timing.run(spark, timeoutSec)(
      NeoLike.countMatches(spark, nodes, edges, p, budgetRows))
    finally { nodes.unpersist(); edges.unpersist() }
  }

  /** Sum of outcome walltimes, counting failures at their elapsed time. */
  def totalSec(outs: Seq[Outcome]): Double = outs.map(_.seconds).sum

  def solved(outs: Seq[Outcome]): Seq[Timing.Solved] =
    outs.collect { case s: Timing.Solved => s }
}
