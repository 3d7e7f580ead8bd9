package repro.core

import repro.{BruteForce, Oracle, SeededChecks, SparkSpec}
import repro.graph.{GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.{PatternSQL, Templates}

class MJoinSuite extends SparkSpec with SeededChecks {

  private def setup(seed: Long, n: Int = 30, e: Int = 75) = {
    val g = GraphGen.random(n, e, 3, seed)
    (g, ReachOps(g))
  }

  test("enumerate returns exactly the brute-force answer (hybrid patterns)") {
    forSeeds(30) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "M")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val got = scala.collection.mutable.Set.empty[Vector[Int]]
      MJoin.enumerate(rig, SearchOrder.jo(rig)) { t => got += t.toVector; true }
      assert(got.toSet == BruteForce.answer(g, p), s"seed=$seed")
    }
  }

  test("enumerate with a match-set RIG (no pruning) still yields the answer") {
    forSeeds(15) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.4, seed + 500, "M")
      val rig = RIG.expand(ops, p, Simulation.matchSets(ops, p))
      val got = scala.collection.mutable.Set.empty[Vector[Int]]
      MJoin.enumerate(rig, SearchOrder.jo(rig)) { t => got += t.toVector; true }
      assert(got.toSet == BruteForce.answer(g, p), s"seed=$seed")
    }
  }

  test("limit caps the number of emitted tuples") {
    val (g, ops) = setup(4, n = 40, e = 120)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    val total = MJoin.enumerate(rig, SearchOrder.jo(rig))(_ => true)
    if (total > 2) {
      val limited = MJoin.enumerate(rig, SearchOrder.jo(rig), limit = 2)(_ => true)
      assert(limited == 2)
    }
  }

  test("emit returning false stops enumeration") {
    val (g, ops) = setup(4, n = 40, e = 120)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    var n = 0
    MJoin.enumerate(rig, SearchOrder.jo(rig)) { _ => n += 1; n < 3 }
    assert(n <= 3)
  }

  test("answerDF columns are q0..qn-1 and rows match brute force") {
    val (g, ops) = setup(9)
    val p = Templates.randomPattern(g, n = 3, extraEdges = 1, reachProb = 0.5, 9, "M")
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    val df = MJoin.answerDF(spark, rig, SearchOrder.jo(rig))
    assert(df.columns.toSeq == (0 until p.numNodes).map(p.colName))
    val rows = df.collect().map(r => (0 until p.numNodes).map(i => r.getLong(i).toInt).toVector).toSet
    assert(rows == BruteForce.answer(g, p))
  }

  test("answerDF agrees with the DuckDB oracle over nodes/edges/reach tables") {
    forSeeds(8) { seed =>
      val (g, ops) = setup(seed, n = 25, e = 60)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed + 77, "O")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val df = MJoin.answerDF(spark, rig, SearchOrder.jo(rig))
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      val reach = {
        import spark.implicits._
        TransitiveClosure.pairs(g).toSeq.map { case (u, v) => (u.toLong, v.toLong) }
          .toDF("src", "dst")
      }
      Oracle.assertEquivalent(df, PatternSQL.sql(p),
        "nodes" -> nodes, "edges" -> edges, "reach" -> reach)
    }
  }

  test("empty RIG enumerates nothing") {
    val (g, ops) = setup(2)
    val p = repro.pattern.Pattern("E", Vector("l0", "zz"),
      Vector(repro.pattern.PEdge(0, 1, repro.pattern.Direct)))
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(MJoin.enumerate(rig, Array(0, 1))(_ => true) == 0)
    assert(MJoin.answerDF(spark, rig, Array(0, 1)).count() == 0)
  }
}
