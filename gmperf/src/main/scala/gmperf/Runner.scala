package gmperf

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{coalesce, col, count, lit, pmod, sum, xxhash64}
import org.roaringbitmap.RoaringBitmap
import repro.core.{GM, MJoin, RIG, SearchOrder, Simulation}
import repro.graph.Graph
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, Reach, TransitiveReduction}
import repro.util.Timing

/** Expected answer of one query: the match count at the workload's limit and,
  * for row workloads, the order-independent checksum of the answer rows.
  */
final case class Ref(count: Long, checksum: Long)

/** Outcome of one query execution. `error` is set when it did not finish. */
final case class Result(query: String, seconds: Double, count: Long, checksum: Long,
                        error: Option[String]) {
  def answers(ref: Option[Ref], limit: Long, rows: Boolean): Boolean =
    error.isEmpty && ref.exists(r =>
      count == math.min(limit, r.count) && (!rows || checksum == r.checksum))
}

/** Generated inputs of one workload variant and the time they took. */
final case class Setup(graphs: Map[String, Graph], ops: Map[String, ReachOps],
                       genSec: Double, condenseSec: Double) {
  def seconds: Double = genSec + condenseSec
  def comps: Long = ops.values.map(_.cond.numComps.toLong).sum
}

/** Runs one workload's queries through GM's public API, one at a time, each
  * under [[Timing.run]] so a hang becomes a failure instead of a stall.
  */
final class Runner(spark: SparkSession, val workload: Workload, budgetSec: Double) {

  private val config = GM.Config(limit = workload.limit)

  /** Generates every dataset of the workload and builds its substrate. */
  def setup(variant: Int): Setup = {
    var genSec, condenseSec = 0.0
    val built = workload.datasets.map { case (name, scale) =>
      val (g, gs) = Timing.time(Workloads.dataset(name, scale, variant))
      val (ops, cs) = Timing.time(ReachOps(g))
      genSec += gs; condenseSec += cs
      name -> (g, ops)
    }.toMap
    Setup(built.map { case (n, (g, _)) => n -> g }, built.map { case (n, (_, o)) => n -> o },
      genSec, condenseSec)
  }

  /** Untraced execution: exactly what a user of GM calls. */
  def run(ops: Map[String, ReachOps], q: Query): Result = {
    var checksum = 0L
    val outcome = Timing.run(spark, budgetSec) {
      if (workload.rows) {
        val (df, _) = GM.answer(spark, ops(q.dataset), q.pattern, config)
        val (rows, sum) = Runner.consume(df)
        checksum = sum
        rows
      } else GM.countMatches(spark, ops(q.dataset), q.pattern, config)._1
    }
    Runner.result(q, outcome, checksum)
  }

  /** One pass over `queries`: its wall time and every result. */
  def pass(ops: Map[String, ReachOps], queries: Seq[Query]): (Double, Seq[Result]) = {
    val (results, seconds) = Timing.time(queries.map(run(ops, _)))
    (seconds, results)
  }

  /** Traced execution: calls each layer's public function from outside, in
    * the order `GM.prepare` and `GM.countMatches` / `GM.answer` call them, and
    * records its time and counts. Layers GM does not run are timed after the
    * answer is known: local `MJoin.enumerate`, and `RIG.expand` on the
    * direct-only and reach-only sub-patterns over the same FB sets.
    */
  def traced(ops: Map[String, ReachOps], q: Query, gc: Runner.GcMeter): (Result, Map[String, Double]) = {
    val m = mutable.LinkedHashMap.empty[String, Double]
    def timed[A](key: String)(f: => A): A = { val (a, s) = Timing.time(f); m(key) = s; a }
    var checksum = 0L
    val o = ops(q.dataset)
    val outcome = Timing.run(spark, budgetSec) {
      val p = q.pattern
      val reduced = timed("pattern.reduce_s")(TransitiveReduction.reduce(p))
      m("pattern.edges_dropped") = p.numEdges - reduced.numEdges
      m("sim.ms_nodes") = Runner.nodes(Simulation.matchSets(o, reduced))
      val init = timed("sim.prefilter_s")(Simulation.prefilter(o, reduced))
      m("sim.prefilter_nodes") = Runner.nodes(init)
      val sim = timed("sim.fbsim_s")(Simulation.fbSim(o, reduced, init, config.simPasses))
      m("sim.passes") = sim.passes
      m("sim.fb_nodes") = Runner.nodes(sim.fb)
      var rig = timed("rig.expand_s") {
        RIG.expand(o, reduced, sim.fb, if (config.distribute) Some(spark) else None)
      }
      m("rig.nodes") = rig.numNodes.toDouble
      m("rig.edges_direct") = Runner.edges(rig, Direct)
      m("rig.edges_reach") = Runner.edges(rig, Reach)
      // Heap is measured only around RIGs big enough to show above GC noise;
      // each measurement forces two full collections.
      val usedWith = if (rig.size >= Runner.RetainedMinSize) gc.usedAfterGc() else -1L
      val order = timed("order.s") {
        if (rig.isEmpty) Array.range(0, reduced.numNodes) else SearchOrder.compute(config.order, rig)
      }
      val matches =
        if (workload.rows) {
          val df = timed("answer.build_s")(MJoin.answerDF(spark, rig, order, config.limit))
          val (rows, sum) = timed("answer.materialize_s")(Runner.consume(df))
          checksum = sum
          m("answer.rows") = rows.toDouble
          rows
        } else timed("mjoin.count_s") {
          if (rig.isEmpty) 0L
          else if (config.distribute) MJoin.count(spark, rig, order, config.limit)
          else MJoin.enumerate(rig, order, config.limit)(_ => true)
        }
      m("mjoin.tuples") = timed("mjoin.enumerate_local_s")(MJoin.enumerate(rig, order, config.limit)(_ => true)).toDouble
      rig = null
      m("rig.retained_mb") = if (usedWith < 0) 0.0 else (usedWith - gc.usedAfterGc()) / 1048576.0
      val directOnly = reduced.copy(edges = reduced.edges.filter(_.kind == Direct))
      val reachOnly = reduced.copy(edges = reduced.edges.filter(_.kind == Reach))
      timed("rig.expand_direct_s")(RIG.expand(o, directOnly, sim.fb))
      timed("rig.expand_reach_s")(RIG.expand(o, reachOnly, sim.fb))
      m("matches") = matches.toDouble
      matches
    }
    val r = Runner.result(q, outcome, checksum)
    if (r.error.isEmpty && m("mjoin.tuples") != r.count)
      (r.copy(error = Some(s"local enumeration gave ${m("mjoin.tuples").toLong} tuples")), m.toMap)
    else (r, m.toMap)
  }
}

object Runner {

  /** RIG size (nodes + edges) from which retained heap is measured. */
  val RetainedMinSize: Long = 1000000L

  /** Modulus of the per-row hash in the answer checksum; a plain sum of
    * `xxhash64` overflows under ANSI arithmetic.
    */
  val ChecksumModulus: Long = 1000000007L

  /** Consumes an answer DataFrame with one Spark aggregate: its row count and
    * the sum of the rows' hashes mod [[ChecksumModulus]] (order-independent).
    */
  def consume(df: DataFrame): (Long, Long) = {
    val h = pmod(xxhash64(df.columns.map(col).toIndexedSeq: _*), lit(ChecksumModulus))
    val r = df.agg(count(lit(1)), coalesce(sum(h), lit(0L))).head()
    (r.getLong(0), r.getLong(1))
  }

  def result(q: Query, outcome: Timing.Outcome, checksum: Long): Result = outcome match {
    case Timing.Solved(s, n) => Result(q.name, s, n, checksum, None)
    case Timing.Failed(s, msg) => Result(q.name, s, -1L, 0L, Some(s"FA: $msg"))
    case o => Result(q.name, o.seconds, -1L, 0L, Some(o.shortLabel))
  }

  private def nodes(sets: Array[RoaringBitmap]): Double = sets.map(_.getCardinality.toLong).sum.toDouble

  private def edges(rig: RIG, kind: repro.pattern.EdgeKind): Double =
    rig.pattern.edges.indices.filter(rig.pattern.edges(_).kind == kind)
      .map(rig.fwdAdj(_).map(_.length.toLong).sum).sum.toDouble

  private def gcTotals: (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(b => math.max(0L, b.getCollectionCount)).sum, beans.map(b => math.max(0L, b.getCollectionTime)).sum)
  }

  /** JVM garbage collection over an interval, minus the collections the
    * benchmark causes itself: forced ones that measure retained heap, and
    * those of set-up builds.
    */
  final class GcMeter {
    private val (count0, ms0) = gcTotals
    private var excludedCount, excludedMs = 0L

    /** Runs `f`, leaving its collections out of [[totals]]. */
    def excluding[A](f: => A): A = {
      val (c0, t0) = gcTotals
      try f finally {
        val (c1, t1) = gcTotals
        excludedCount += c1 - c0; excludedMs += t1 - t0
      }
    }

    def usedAfterGc(): Long = excluding {
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    }

    /** (collections, seconds) since construction, excluded ones left out. */
    def totals: (Long, Double) = {
      val (c, t) = gcTotals
      (c - count0 - excludedCount, (t - ms0 - excludedMs) / 1000.0)
    }
  }

  /** Spark jobs, tasks and executor run time, from the listener bus. */
  final class SparkCounters extends SparkListener {
    val jobs = new AtomicLong
    val tasks = new AtomicLong
    val runMs = new AtomicLong
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      if (e.taskMetrics != null) runMs.addAndGet(e.taskMetrics.executorRunTime)
    }

    /** Waits until the asynchronous listener bus stops delivering events. */
    def settle(): Unit = {
      var last = -1L
      var tries = 0
      while (tasks.get != last && tries < 50) {
        last = tasks.get
        Thread.sleep(100)
        tries += 1
      }
    }
  }
}
