package repro.core

import repro.{BruteForce, Oracle, SeededChecks, SparkSpec}
import repro.graph.{GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.{PatternSQL, Templates}

class GMSuite extends SparkSpec with SeededChecks {

  private def setup(seed: Long, n: Int = 30, e: Int = 80) = {
    val g = GraphGen.random(n, e, 3, seed)
    (g, ReachOps(g))
  }

  test("GM counts match brute force on random hybrid patterns") {
    forSeeds(20) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 2, reachProb = 0.5, seed, "G")
      val (count, _) = GM.countMatches(spark, ops, p)
      assert(count == BruteForce.answer(g, p).size, s"seed=$seed")
    }
  }

  test("all ablation variants agree on the count") {
    forSeeds(12) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.6, seed + 40, "G")
      val exp = BruteForce.answer(g, p).size.toLong
      val variants = Seq(
        GM.Config(),                    // GM
        GM.Config(prefilter = false),   // GM-S
        GM.Config(simulate = false),    // GM-F
        GM.Config(reduce = false),      // GM-NR
        GM.Config(order = SearchOrder.RI),
        GM.Config(order = SearchOrder.BJ),
        GM.Config(simPasses = 1),
      )
      variants.foreach { cfg =>
        val (count, _) = GM.countMatches(spark, ops, p, cfg)
        assert(count == exp, s"seed=$seed cfg=$cfg")
      }
    }
  }

  test("countMatches runs on the driver: no Spark job even with a large cos(q1)") {
    val (g, ops) = setup(11, n = 400, e = 1600)
    val p = Templates.hQuery(0, g)
    val config = GM.Config(limit = 100000L)
    val (rig, order, _) = GM.prepare(ops, p, config)
    assert(rig.cos(order(0)).length >= 64, "too few seeds to have distributed the count")
    val ((count, _), jobs) = sparkJobsDuring(GM.countMatches(spark, ops, p, config))
    assert(jobs == 0)
    assert(count == MJoin.count(rig, order, config.limit))
  }

  test("single-node pattern: count and answer rows equal the label's inverted list") {
    val (g, ops) = setup(4)
    val p = repro.pattern.Pattern("S", Vector("l1"), Vector.empty)
    val expected = g.invertedListByName("l1").toSeq
    assert(expected.nonEmpty)
    assert(GM.countMatches(spark, ops, p)._1 == expected.length)
    val rows = GM.answer(spark, ops, p)._1.collect().map(_.getLong(0).toInt)
    assert(rows.sorted.toSeq == expected)
  }

  test("GM answer DataFrame equals the DuckDB oracle on template queries") {
    forSeeds(6) { seed =>
      val (g, ops) = setup(seed, n = 25, e = 60)
      val p = Templates.hQuery((seed % 10).toInt, g)
      val (df, _) = GM.answer(spark, ops, p)
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      import spark.implicits._
      val reach = TransitiveClosure.pairs(g).toSeq.map { case (u, v) => (u.toLong, v.toLong) }
        .toDF("src", "dst")
      Oracle.assertEquivalent(df, PatternSQL.sql(p),
        "nodes" -> nodes, "edges" -> edges, "reach" -> reach)
    }
  }

  test("stats are populated and consistent") {
    val (g, ops) = setup(7, n = 60, e = 180)
    val p = Templates.hQuery(6, g)
    val (count, stats) = GM.countMatches(spark, ops, p)
    assert(stats.matches == count)
    assert(stats.totalSec >= stats.matchingSec)
    assert(stats.rigSize == stats.rigNodes + stats.rigEdges)
    assert(stats.order.sorted == (0 until p.numNodes))
  }

  test("empty-answer query terminates early with an empty RIG") {
    val (g, ops) = setup(3)
    val p = repro.pattern.Pattern("E", Vector("l0", "zz"),
      Vector(repro.pattern.PEdge(0, 1, repro.pattern.Direct)))
    val (count, stats) = GM.countMatches(spark, ops, p)
    assert(count == 0 && stats.rigSize == 0)
  }

  test("limit caps the reported match count") {
    val (g, ops) = setup(5, n = 50, e = 150)
    val p = Templates.hQuery(0, g)
    val (full, _) = GM.countMatches(spark, ops, p)
    if (full > 3) {
      val (capped, _) = GM.countMatches(spark, ops, p,
        GM.Config(limit = 3))
      assert(capped == 3)
    }
  }

  test("transitive reduction shrinks redundant D-queries before evaluation") {
    val (g, ops) = setup(8, n = 40, e = 100)
    // chain with redundant shortcut edges
    val p = repro.pattern.Pattern("DQr",
      Vector.fill(4)(Templates.frequentLabels(g).head),
      Vector(
        repro.pattern.PEdge(0, 1, repro.pattern.Reach),
        repro.pattern.PEdge(1, 2, repro.pattern.Reach),
        repro.pattern.PEdge(2, 3, repro.pattern.Reach),
        repro.pattern.PEdge(0, 2, repro.pattern.Reach),
        repro.pattern.PEdge(0, 3, repro.pattern.Reach)))
    val (withR, _) = GM.countMatches(spark, ops, p)
    val (withoutR, _) = GM.countMatches(spark, ops, p, GM.Config(reduce = false))
    assert(withR == withoutR)
    assert(withR == BruteForce.answer(g, p).size)
  }
}
