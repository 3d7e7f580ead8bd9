package gmperf

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.scalatest.funsuite.AnyFunSuite
import repro.{BruteForce, Oracle}
import repro.core.GM
import repro.graph.{Graph, GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.{Pattern, PatternSQL}

/** Cross-checks every workload's query set on small random graphs against
  * the brute-force matcher and the DuckDB oracle, and checks that the
  * benchmark's own answer check catches a wrong reference.
  */
class WorkloadsSuite extends AnyFunSuite {

  lazy val spark: SparkSession = SparkSession.builder
    .master("local[2]")
    .appName("gmperf-test")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  /** Small random stand-ins for a workload's datasets. */
  private def smallGraphs(w: Workload, seed: Long): Map[String, Graph] =
    w.datasets.map { case (name, _) => name -> GraphGen.random(16, 32, 4, seed * 31 + name.length) }.toMap

  private def answerDF(p: Pattern, tuples: Set[Vector[Int]]) =
    spark.createDataFrame(
      spark.sparkContext.parallelize(tuples.toSeq.map(t => Row.fromSeq(t.map(_.toLong)))),
      StructType((0 until p.numNodes).map(q => StructField(p.colName(q), LongType, nullable = false))))

  for (w <- Workloads.all) {
    test(s"${w.name}: GM counts and answers equal brute force on small graphs") {
      for (seed <- 0L until 3L; variant <- 0 until 2) {
        val gs = smallGraphs(w, seed)
        val ops = gs.map { case (n, g) => n -> ReachOps(g) }
        w.queries(gs, variant).foreach { q =>
          val expected = BruteForce.answer(gs(q.dataset), q.pattern)
          val config = GM.Config(limit = w.limit)
          val clue = s"${q.name} seed=$seed variant=$variant"
          if (w.rows) {
            val (df, _) = GM.answer(spark, ops(q.dataset), q.pattern, config)
            assert(Runner.consume(df) == Runner.consume(answerDF(q.pattern, expected)), clue)
          } else {
            val (n, _) = GM.countMatches(spark, ops(q.dataset), q.pattern, config)
            assert(n == math.min(w.limit, expected.size.toLong), clue)
          }
        }
      }
    }

    test(s"${w.name}: GM answers equal the DuckDB oracle on every template") {
      val gs = smallGraphs(w, seed = 7)
      val tables = gs.map { case (n, g) =>
        import spark.implicits._
        val reach = TransitiveClosure.pairs(g).toSeq.map { case (u, v) => (u.toLong, v.toLong) }.toDF("src", "dst")
        n -> Seq("nodes" -> GraphDF.nodesDF(spark, g), "edges" -> GraphDF.edgesDF(spark, g), "reach" -> reach)
      }
      val byTemplate = w.queries(gs, 0).groupBy(q => (q.dataset, q.pattern.name)).values.map(_.head)
      byTemplate.foreach { q =>
        val (df, _) = GM.answer(spark, ReachOps(gs(q.dataset)), q.pattern)
        Oracle.assertEquivalent(df, PatternSQL.sql(q.pattern), tables(q.dataset): _*)
      }
    }
  }

  test("the seed selects the variant, which changes graphs and label seeds") {
    assert(Workloads.variant(3) == 3 && Workloads.variant(3 + Workloads.Variants) == 3)
    assert(Workloads.variant(-1) == Workloads.Variants - 1)
    val g0 = Workloads.dataset("hu", 0.05, 0)
    val g1 = Workloads.dataset("hu", 0.05, 1)
    assert(g0.fwdAdj.toSeq != g1.fwdAdj.toSeq)
    val names0 = Workloads.enumHeavy.queries(Map("hu" -> g0), 0).map(_.name)
    val names1 = Workloads.enumHeavy.queries(Map("hu" -> g0), 1).map(_.name)
    assert(names0 != names1)
  }

  test("every variant of the capped workloads checks queries under the cap") {
    // A capped count only shows that `limit` matches exist; the exact counts
    // of uncapped queries are what catch a RIG or MJoin that loses matches.
    for (w <- Seq(Workloads.reachExpand, Workloads.enumHeavy); v <- 0 until Workloads.Variants) {
      val refs = Refs.load(new java.io.File("refs", s"${w.name}.tsv"), v)
      assert(refs.values.count(_.count < w.limit) >= 4, s"${w.name} variant $v")
    }
  }

  /** The `selective` workload at a tiny scale, with references from a clean pass. */
  private def tiny(): (Workload, Map[String, Ref]) = {
    val w = Workloads.selective.copy(datasets = Workloads.selective.datasets.map { case (n, _) => n -> 0.002 })
    val runner = new Runner(spark, w, Main.BudgetSec)
    val setup = runner.setup(Workloads.variant(5))
    val refs = w.queries(setup.graphs, Workloads.variant(5)).map(runner.run(setup.ops, _))
      .map(r => r.query -> Ref(r.count, r.checksum)).toMap
    (w, refs)
  }

  private def metric(line: String, name: String): Double =
    Json.mapper.readTree(line).get("metrics").get(name).get("value").asDouble

  test("a corrupted reference lowers answered_frac and clears correct") {
    val (w, refs) = tiny()
    val opts = Main.Opts(workload = w.name, seed = 5, seconds = 0, out = "target/test-out")
    val (clean, _) = Main.measure(spark, w, opts, refs)
    assert(metric(clean, "answered_frac") == 1.0)
    assert(Json.mapper.readTree(clean).get("correct").asBoolean)

    val (victim, ref) = refs.find(_._2.count > 0).get
    val (bad, _) = Main.measure(spark, w, opts, refs.updated(victim, ref.copy(count = ref.count + 1)))
    assert(metric(bad, "answered_frac") < 1.0)
    assert(!Json.mapper.readTree(bad).get("correct").asBoolean)
    assert(Json.mapper.readTree(bad).get("failed").asLong > 0)
  }

  test("the traced run reports every per-layer metric and matches the untraced counts") {
    val (w, refs) = tiny()
    val opts = Main.Opts(workload = w.name, seed = 5, seconds = 0, trace = true, out = "target/test-out")
    val (line, doc) = Main.measure(spark, w, opts, refs)
    val result = Json.mapper.readTree(line)
    assert(result.get("correct").asBoolean, line)
    val names = Seq("graph.gen_s", "reach.condense_s", "reach.comps", "pattern.reduce_s",
      "pattern.edges_dropped", "sim.prefilter_s", "sim.fbsim_s", "sim.passes", "sim.ms_nodes",
      "sim.prefilter_nodes", "sim.fb_nodes", "sim.fb_over_ms", "rig.expand_s",
      "rig.expand_direct_s", "rig.expand_reach_s", "rig.nodes", "rig.edges_direct",
      "rig.edges_reach", "rig.edges_per_match", "rig.retained_mb", "order.s", "mjoin.count_s",
      "mjoin.enumerate_local_s", "mjoin.tuples", "answer.build_s", "answer.materialize_s",
      "answer.rows", "jvm.gc_s", "jvm.gc_count", "spark.jobs", "spark.tasks",
      "spark.executor_run_s", "trace.overhead_s")
    names.foreach(n => assert(result.get("metrics").has(n), n))
    assert(metric(line, "gm.matches") == metric(line, "mjoin.tuples"))
    assert(metric(line, "gm.matches") == refs.values.map(_.count).sum.toDouble)
    assert(doc.get.get("queries").asInstanceOf[java.util.List[_]].size == refs.size)
  }
}
