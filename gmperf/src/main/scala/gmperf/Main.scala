package gmperf

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import repro.util.Timing

/** Benchmark entry point; see README.md for the commands.
  *
  * One run = one workload, one seed, one JVM. It builds the workload's inputs,
  * runs [[WarmupPasses]] untimed passes over the query set, then measures
  * passes until they add up to `--seconds` (at least [[MinPasses]]). Fresh
  * builds of the inputs are timed between the passes; their median is
  * `setup_s`. Every answer is checked against the
  * committed references in `refs/<workload>.tsv`. The last line of stdout is
  * the JSON result; progress goes to stderr.
  *
  * `--trace 1` adds a traced part after the untraced passes and reports the
  * per-layer metrics instead, also writing them with per-query rows to
  * `<out>/trace-<workload>-seed<seed>.json`.
  *
  * `--make-refs` writes the references of every variant of the workload from
  * the current code instead of measuring.
  */
object Main {

  /** Set-up is timed in batches, one after the warm-up pass and one after
    * each measured pass. A batch repeats the build, up to [[SetupBatchMaxReps]]
    * times, while it has taken under [[SetupBatchSeconds]]: a 50 ms set-up
    * gets a median over 30 or more samples, a 1 s one over 3 or more.
    */
  val SetupBatchMaxReps = 10
  val SetupBatchSeconds = 0.5
  val WarmupPasses = 1
  val MinPasses = 2
  /** Per-query wall budget; far above any query's time, so only a hang hits it. */
  val BudgetSec = 120.0

  final case class Opts(workload: String = "", seed: Long = 0L, seconds: Double = 10.0,
                        trace: Boolean = false, refs: String = "refs", out: String = "out",
                        makeRefs: Boolean = false)

  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: t => parse(t, o.copy(workload = v))
    case "--seed" :: v :: t => parse(t, o.copy(seed = v.toLong))
    case "--seconds" :: v :: t => parse(t, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: t => parse(t, o.copy(trace = v == "1"))
    case "--refs" :: v :: t => parse(t, o.copy(refs = v))
    case "--out" :: v :: t => parse(t, o.copy(out = v))
    case "--make-refs" :: t => parse(t, o.copy(makeRefs = true))
    case Nil => o
    case x :: _ => throw new IllegalArgumentException(s"unknown argument: $x")
  }

  def log(msg: String): Unit = Console.err.println(s"[gmperf] $msg")

  def main(args: Array[String]): Unit = {
    val opts = parse(args.toList)
    val workload = Workloads.byName(opts.workload)
    val spark = session()
    try {
      if (opts.makeRefs) makeRefs(spark, workload, opts)
      else {
        val refs = Refs.load(new File(opts.refs, s"${workload.name}.tsv"), Workloads.variant(opts.seed))
        val (line, _) = measure(spark, workload, opts, refs)
        println(line)
      }
    } finally spark.stop()
  }

  /** Spark in local mode on at most four cores (the machine's count if fewer). */
  def session(): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val tmp = sys.props("java.io.tmpdir")
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("gmperf")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", tmp)
      .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def makeRefs(spark: SparkSession, w: Workload, opts: Opts): Unit = {
    val runner = new Runner(spark, w, BudgetSec)
    val rows = (0 until Workloads.Variants).flatMap { v =>
      val setup = runner.setup(v)
      val queries = w.queries(setup.graphs, v)
      val results = queries.map(runner.run(setup.ops, _))
      results.foreach { r =>
        require(r.error.isEmpty, s"variant $v ${r.query}: ${r.error.get}")
        log(f"  $v ${r.query} ${r.count} ${r.seconds}%.3f s")
      }
      log(f"variant $v: ${results.size} queries, ${results.map(_.count).sum} matches, " +
        f"${results.map(_.seconds).sum}%.2f s")
      results.map(r => (v, r.query, Ref(r.count, r.checksum)))
    }
    val file = new File(opts.refs, s"${w.name}.tsv")
    Refs.save(file, w, rows)
    log(s"wrote ${rows.size} references to $file")
  }

  /** Runs the workload and returns the result line plus the trace document. */
  def measure(spark: SparkSession, w: Workload, opts: Opts,
              refs: Map[String, Ref]): (String, Option[java.util.Map[String, AnyRef]]) = {
    val variant = Workloads.variant(opts.seed)
    val runner = new Runner(spark, w, BudgetSec)
    val env = Map(
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "spark_master" -> spark.sparkContext.master,
      "variant" -> variant.toString)
    log(s"workload ${w.name} seed ${opts.seed} ${env.map { case (k, v) => s"$k=$v" }.mkString(" ")}")

    val setup = runner.setup(variant)
    val queries = w.queries(setup.graphs, variant)

    var attempted, failed = 0L
    val traceMismatch = mutable.ArrayBuffer.empty[String]
    def check(results: Seq[Result]): Unit = results.foreach { r =>
      attempted += 1
      if (!r.answers(refs.get(r.query), w.limit, w.rows)) {
        failed += 1
        log(s"unanswered ${r.query}: count=${r.count} checksum=${r.checksum} " +
          s"ref=${refs.get(r.query)} error=${r.error.getOrElse("-")}")
      }
    }

    (1 to WarmupPasses).foreach { i =>
      val (s, rs) = runner.pass(setup.ops, queries)
      check(rs)
      log(f"warm-up pass $i: $s%.3f s")
    }
    // Set-up is timed from the end of the warm-up pass on, when Spark
    // start-up and the first compilations no longer compete for the cores,
    // and in batches between the passes, so its samples span the run instead
    // of one stretch of it. Each build starts after a full collection and only
    // its times are kept, so no collection of an earlier build's garbage lands
    // inside it. The builds' collections are left out of `jvm.gc_*`.
    val gc = new Runner.GcMeter
    val setups = mutable.ArrayBuffer.empty[Setup]
    def setupBatch(): Unit = gc.excluding {
      val batch = mutable.ArrayBuffer.empty[Setup]
      while (batch.isEmpty ||
             (batch.size < SetupBatchMaxReps && batch.map(_.seconds).sum < SetupBatchSeconds)) {
        System.gc()
        batch += runner.setup(variant).copy(graphs = Map.empty, ops = Map.empty)
      }
      setups ++= batch
      log(f"setup ${batch.map(_.seconds).map(s => f"$s%.3f").mkString(" ")} s")
    }
    setupBatch()
    val measureFor = if (opts.trace) opts.seconds / 2 else opts.seconds
    // JVM and Spark counters cover the untraced passes, so they describe the
    // pipeline users run rather than the tracer's extra work.
    val counters = new Runner.SparkCounters
    if (opts.trace) spark.sparkContext.addSparkListener(counters)
    val passTimes = mutable.ArrayBuffer.empty[Double]
    val latencies = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val untracedCounts = mutable.Map.empty[String, Long]
    while (passTimes.size < MinPasses || passTimes.sum < measureFor) {
      gc.usedAfterGc()
      val (s, rs) = runner.pass(setup.ops, queries)
      check(rs)
      passTimes += s
      rs.foreach(r => latencies.getOrElseUpdate(r.query, mutable.ArrayBuffer.empty) += r.seconds)
      rs.foreach(r => untracedCounts(r.query) = r.count)
      log(f"pass ${passTimes.size}: $s%.3f s")
      setupBatch()
    }
    // A pass's time is the sum of each query's median over the measured
    // passes: a burst of load on the machine slows a few queries of one pass,
    // which the per-query median discards.
    val totalS = latencies.values.map(xs => Stats.median(xs.toSeq)).sum

    if (!opts.trace) {
      val metrics = Seq(
        ("total_s", totalS, "s"),
        ("setup_s", Stats.median(setups.map(_.seconds).toSeq), "s"),
        ("answered_frac", (attempted - failed).toDouble / attempted, "ratio"))
      return (resultLine(failed == 0, attempted, failed, metrics), None)
    }

    val (gcCount, gcSec) = gc.totals
    counters.settle()
    spark.sparkContext.removeSparkListener(counters)
    val n = passTimes.size.toDouble

    // Traced part: same queries, each layer called from outside.
    val tracedPasses = mutable.ArrayBuffer.empty[(Double, Seq[(Result, Map[String, Double])])]
    val t1 = System.nanoTime()
    while (tracedPasses.isEmpty || (System.nanoTime() - t1) / 1e9 < opts.seconds / 2) {
      gc.usedAfterGc()
      val (rows, s) = Timing.time(queries.map(runner.traced(setup.ops, _, gc)))
      check(rows.map(_._1))
      rows.foreach { case (r, _) =>
        if (untracedCounts.get(r.query).exists(_ != r.count)) traceMismatch += r.query
      }
      tracedPasses += ((s, rows))
      log(f"traced pass ${tracedPasses.size}: $s%.3f s")
    }
    traceMismatch.distinct.foreach(q => log(s"traced count differs from untraced on $q"))

    val perPass: Seq[Map[String, Double]] = tracedPasses.toSeq.map { case (_, rows) =>
      val sums = mutable.LinkedHashMap.empty[String, Double]
      rows.foreach { case (_, m) => m.foreach { case (k, v) =>
        sums(k) = if (k == "rig.retained_mb") math.max(sums.getOrElse(k, 0.0), v) else sums.getOrElse(k, 0.0) + v
      } }
      sums.toMap
    }
    def layer(k: String): Double = Stats.median(perPass.map(_.getOrElse(k, 0.0)))
    val tracedS = Stats.median(tracedPasses.map(_._1).toSeq)
    val edges = layer("rig.edges_direct") + layer("rig.edges_reach")
    val metrics = Seq(
      ("graph.gen_s", Stats.median(setups.map(_.genSec).toSeq), "s"),
      ("reach.condense_s", Stats.median(setups.map(_.condenseSec).toSeq), "s"),
      ("reach.comps", setup.comps.toDouble, "count"),
      ("pattern.reduce_s", layer("pattern.reduce_s"), "s"),
      ("pattern.edges_dropped", layer("pattern.edges_dropped"), "count"),
      ("sim.prefilter_s", layer("sim.prefilter_s"), "s"),
      ("sim.fbsim_s", layer("sim.fbsim_s"), "s"),
      ("sim.passes", layer("sim.passes"), "count"),
      ("sim.ms_nodes", layer("sim.ms_nodes"), "count"),
      ("sim.prefilter_nodes", layer("sim.prefilter_nodes"), "count"),
      ("sim.fb_nodes", layer("sim.fb_nodes"), "count"),
      ("sim.fb_over_ms", layer("sim.fb_nodes") / math.max(1.0, layer("sim.ms_nodes")), "ratio"),
      ("rig.expand_s", layer("rig.expand_s"), "s"),
      ("rig.expand_direct_s", layer("rig.expand_direct_s"), "s"),
      ("rig.expand_reach_s", layer("rig.expand_reach_s"), "s"),
      ("rig.nodes", layer("rig.nodes"), "count"),
      ("rig.edges_direct", layer("rig.edges_direct"), "count"),
      ("rig.edges_reach", layer("rig.edges_reach"), "count"),
      ("rig.edges_per_match", edges / math.max(1.0, layer("matches")), "ratio"),
      ("rig.retained_mb", layer("rig.retained_mb"), "MB"),
      ("order.s", layer("order.s"), "s"),
      ("mjoin.count_s", layer("mjoin.count_s"), "s"),
      ("mjoin.enumerate_local_s", layer("mjoin.enumerate_local_s"), "s"),
      ("mjoin.tuples", layer("mjoin.tuples"), "count"),
      ("answer.build_s", layer("answer.build_s"), "s"),
      ("answer.materialize_s", layer("answer.materialize_s"), "s"),
      ("answer.rows", layer("answer.rows"), "count"),
      ("gm.matches", layer("matches"), "count"),
      ("jvm.gc_s", gcSec / n, "s"),
      ("jvm.gc_count", gcCount / n, "count"),
      ("spark.jobs", counters.jobs.get / n, "count"),
      ("spark.tasks", counters.tasks.get / n, "count"),
      ("spark.executor_run_s", counters.runMs.get / 1000.0 / n, "s"),
      ("query.p50_s", Stats.quantile(latencies.values.flatten.toSeq, 0.5), "s"),
      ("query.p90_s", Stats.quantile(latencies.values.flatten.toSeq, 0.9), "s"),
      ("trace.pass_s", tracedS, "s"),
      ("trace.overhead_s", tracedS - totalS, "s"))

    val doc = new java.util.LinkedHashMap[String, AnyRef]()
    doc.put("workload", w.name)
    doc.put("seed", Long.box(opts.seed))
    env.foreach { case (k, v) => doc.put(k, v) }
    doc.put("untraced_total_s", Double.box(totalS))
    doc.put("untraced_pass_s", passTimes.map(Double.box).asJava)
    doc.put("traced_pass_s", tracedPasses.map(p => Double.box(p._1)).asJava)
    doc.put("metrics", metricsNode(metrics))
    doc.put("queries", tracedPasses.last._2.map { case (r, m) =>
      val row = new java.util.LinkedHashMap[String, AnyRef]()
      row.put("query", r.query)
      row.put("error", r.error.orNull)
      row.put("seconds", Double.box(r.seconds))
      m.foreach { case (k, v) => row.put(k, Double.box(v)) }
      row
    }.asJava)
    val outDir = new File(opts.out)
    outDir.mkdirs()
    val file = new File(outDir, s"trace-${w.name}-seed${opts.seed}.json")
    Files.write(file.toPath, Json.mapper.writerWithDefaultPrettyPrinter.writeValueAsBytes(doc))
    log(s"wrote $file")
    (resultLine(failed == 0 && traceMismatch.isEmpty, attempted, failed, metrics), Some(doc))
  }

  private def metricsNode(metrics: Seq[(String, Double, String)]): java.util.Map[String, AnyRef] = {
    val node = new java.util.LinkedHashMap[String, AnyRef]()
    metrics.foreach { case (name, value, unit) =>
      val m = new java.util.LinkedHashMap[String, AnyRef]()
      m.put("value", Double.box(value))
      m.put("unit", unit)
      node.put(name, m)
    }
    node
  }

  def resultLine(correct: Boolean, attempted: Long, failed: Long,
                 metrics: Seq[(String, Double, String)]): String = {
    val doc = new java.util.LinkedHashMap[String, AnyRef]()
    doc.put("correct", Boolean.box(correct))
    doc.put("attempted", Long.box(attempted))
    doc.put("failed", Long.box(failed))
    doc.put("metrics", metricsNode(metrics))
    Json.mapper.writeValueAsString(doc)
  }
}

object Json {
  val mapper: ObjectMapper = new ObjectMapper()
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }
}

/** Committed answer references: `variant<TAB>query<TAB>count<TAB>checksum`. */
object Refs {
  def load(file: File, variant: Int): Map[String, Ref] = {
    require(file.isFile, s"missing references $file (generate them with --make-refs)")
    Files.readAllLines(file.toPath, StandardCharsets.UTF_8).asScala.iterator
      .filterNot(l => l.isEmpty || l.startsWith("#"))
      .map(_.split('\t'))
      .filter(_(0).toInt == variant)
      .map(f => f(1) -> Ref(f(2).toLong, f(3).toLong))
      .toMap
  }

  def save(file: File, w: Workload, rows: Seq[(Int, String, Ref)]): Unit = {
    file.getParentFile.mkdirs()
    val header = s"# ${w.name}: limit=${w.limit} rows=${w.rows}; variant, query, count, checksum"
    val lines = header +: rows.map { case (v, q, r) => s"$v\t$q\t${r.count}\t${r.checksum}" }
    Files.write(file.toPath, lines.asJava, StandardCharsets.UTF_8)
  }
}
