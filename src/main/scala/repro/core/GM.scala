package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.reach.ReachOps
import repro.pattern.{Pattern, TransitiveReduction}
import repro.util.Timing

/** The paper's composed matcher GM (§7.1) and its ablation variants:
  *
  *  - GM    = transitive reduction → node pre-filter → double simulation →
  *            RIG → search order → MJoin;
  *  - GM-S  = GM without the pre-filter step (§7.4 "RIG size");
  *  - GM-F  = pre-filter only, no double simulation (match-set RIG);
  *  - GM-NR = GM without query transitive reduction (§7.4);
  *  - GM-JO / GM-RI / GM-BJ = search-order variants (§7.4, Table 4).
  */
object GM {

  final case class Config(
      reduce: Boolean = true,
      prefilter: Boolean = true,
      simulate: Boolean = true,
      simPasses: Int = 3, // the paper fixes N = 3 (§4.5)
      order: SearchOrder.Strategy = SearchOrder.JO,
      limit: Long = Long.MaxValue,
      /** Kept for the frozen benchmark only; ignored, and nothing under `src/` reads it. */
      distribute: Boolean = true,
  )

  /** Phase timings (seconds) and RIG statistics for §7.4-style reporting. */
  final case class Stats(
      reduceSec: Double,
      filterSec: Double,
      simSec: Double,
      expandSec: Double,
      orderSec: Double,
      enumSec: Double,
      rigNodes: Long,
      rigEdges: Long,
      simPasses: Int,
      order: Seq[Int],
      matches: Long,
  ) {
    def matchingSec: Double = reduceSec + filterSec + simSec + expandSec + orderSec
    def totalSec: Double = matchingSec + enumSec
    def rigSize: Long = rigNodes + rigEdges
  }

  /** Runs the full pipeline on the driver and counts matches (capped at
    * `config.limit`). Starts no Spark job; `spark` is unused.
    */
  def countMatches(spark: SparkSession, ops: ReachOps, pattern: Pattern,
                   config: Config = Config()): (Long, Stats) = {
    val (rig, order, stats) = prepare(ops, pattern, config)
    val (matches, enumSec) = Timing.time(MJoin.count(rig, order, config.limit))
    (matches, stats.copy(enumSec = enumSec, matches = matches))
  }

  /** Runs the full pipeline and returns the answer relation Q(G): one column
    * per query node, named `q0..qn-1` (paper Def. 2.6).
    */
  def answer(spark: SparkSession, ops: ReachOps, pattern: Pattern,
             config: Config = Config()): (DataFrame, Stats) = {
    val (rig, order, stats) = prepare(ops, pattern, config)
    val (df, enumSec) = Timing.time(MJoin.answerDF(spark, rig, order, config.limit))
    (df, stats.copy(enumSec = enumSec))
  }

  /** Everything before enumeration: the paper's "matching time". */
  def prepare(ops: ReachOps, pattern: Pattern, config: Config): (RIG, Array[Int], Stats) = {
    val (reduced, reduceSec) = Timing.time {
      if (config.reduce) TransitiveReduction.reduce(pattern) else pattern
    }
    val (init, filterSec) = Timing.time {
      if (config.prefilter) Simulation.prefilter(ops, reduced)
      else Simulation.matchSets(ops, reduced)
    }
    val (simRes, simSec) = Timing.time {
      if (config.simulate) Simulation.fbSim(ops, reduced, init, config.simPasses)
      else Simulation.Result(init, 0)
    }
    val (rig, expandSec) = Timing.time(RIG.expand(ops, reduced, simRes.fb))
    val (order, orderSec) = Timing.time {
      if (rig.isEmpty) Array.range(0, reduced.numNodes)
      else SearchOrder.compute(config.order, rig)
    }
    val stats = Stats(reduceSec, filterSec, simSec, expandSec, orderSec,
      enumSec = 0.0, rigNodes = rig.numNodes, rigEdges = rig.numEdges,
      simPasses = simRes.passes, order = order.toSeq, matches = 0L)
    (rig, order, stats)
  }
}
