package repro.baselines

import repro.{BruteForce, SeededChecks, SparkSpec}
import repro.core.GM
import repro.graph.GraphGen
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.{Pattern, PEdge, Direct, Reach, Templates}
import repro.util.Timing

class JMSuite extends SparkSpec with SeededChecks {

  test("JM equals brute force on random hybrid patterns") {
    forSeeds(12) { seed =>
      val g = GraphGen.random(28, 70, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "J")
      val got = JM.countMatches(spark, ops, p)
      assert(got == BruteForce.answer(g, p).size, s"seed=$seed")
    }
  }

  test("JM equals brute force on template C- and D-queries") {
    val g = GraphGen.random(35, 90, 3, seed = 5)
    val ops = ReachOps(g)
    Seq(0, 6).foreach { id =>
      val c = Templates.cQuery(id, g)
      assert(JM.countMatches(spark, ops, c) == BruteForce.answer(g, c).size, s"CQ$id")
      val d = Templates.dQuery(id, g)
      assert(JM.countMatches(spark, ops, d) == BruteForce.answer(g, d).size, s"DQ$id")
    }
  }

  test("JM counts the candidates of a single-node pattern") {
    val g = GraphGen.random(20, 40, 3, seed = 4)
    val p = Pattern("S", Vector("l0"), Vector.empty)
    assert(JM.countMatches(spark, ReachOps(g), p) == BruteForce.answer(g, p).size)
  }

  test("tiny row budget triggers SimulatedOOM (intermediate explosion model)") {
    val g = GraphGen.random(60, 200, 2, seed = 3)
    val ops = ReachOps(g)
    val p = Templates.dQuery(0, g) // chain of reach edges: big match sets
    intercept[Timing.SimulatedOOM] {
      JM.countMatches(spark, ops, p, budgetRows = 3)
    }
  }

  test("an over-budget edge relation fails before any Spark job") {
    val g = GraphGen.random(60, 200, 2, seed = 3)
    val ops = ReachOps(g)
    val p = Templates.dQuery(0, g)
    val (_, jobs) = sparkJobsDuring {
      intercept[Timing.SimulatedOOM] {
        JM.countMatches(spark, ops, p, budgetRows = 3)
      }
    }
    assert(jobs == 0)
  }

  test("left-deep plans are connected and cover every edge") {
    forSeeds(15) { seed =>
      val g = GraphGen.random(30, 70, 3, seed)
      val p = Templates.randomPattern(g, n = 5, extraEdges = 2, reachProb = 0.5, seed, "P")
      val sizes = Vector.fill(p.numEdges)(10L + seed)
      val plan = JM.planLeftDeep(p, sizes)
      assert(plan.sorted == p.edges.indices.toList)
      var bound = Set(p.edges(plan.head).from, p.edges(plan.head).to)
      plan.tail.foreach { ei =>
        val e = p.edges(ei)
        assert(bound.contains(e.from) || bound.contains(e.to), s"disconnected at $ei")
        bound ++= Set(e.from, e.to)
      }
    }
  }

  test("greedy fallback used above 16 edges still yields a valid plan") {
    val g = GraphGen.random(60, 150, 3, seed = 21)
    val p = Templates.randomPattern(g, n = 12, extraEdges = 7, reachProb = 0.3, 21, "Big")
    assert(p.numEdges > 16)
    val plan = JM.planLeftDeep(p, Vector.tabulate(p.numEdges)(i => (i + 1).toLong))
    assert(plan.sorted == p.edges.indices.toList)
  }
}

class TMSuite extends SparkSpec with SeededChecks {

  test("spanning tree covers all nodes with n-1 original edges") {
    forSeeds(15) { seed =>
      val g = GraphGen.random(30, 70, 3, seed)
      val p = Templates.randomPattern(g, n = 6, extraEdges = 3, reachProb = 0.5, seed, "T")
      val tree = TM.spanningTree(p)
      assert(tree.numEdges == p.numNodes - 1)
      assert(tree.isConnected)
      assert(tree.edges.forall(p.edges.contains))
      assert(tree.isUndirectedAcyclic)
    }
  }

  test("TM equals brute force on random hybrid patterns") {
    forSeeds(12) { seed =>
      val g = GraphGen.random(28, 70, 3, seed)
      val ops = ReachOps(g)
      val bfl = BFL.build(g, ops.cond)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 2, reachProb = 0.5, seed, "T")
      val got = TM.countMatches(ops, bfl, p)
      assert(got == BruteForce.answer(g, p).size, s"seed=$seed")
    }
  }

  test("TM equals brute force on cyclic and clique templates") {
    val g = GraphGen.random(40, 120, 3, seed = 6)
    val ops = ReachOps(g)
    val bfl = BFL.build(g, ops.cond)
    Seq(6, 9, 11).foreach { id =>
      val p = Templates.hQuery(id, g)
      assert(TM.countMatches(ops, bfl, p) == BruteForce.answer(g, p).size, s"HQ$id")
    }
  }

  test("TM on a tree pattern needs no post-filtering and still agrees") {
    val g = GraphGen.random(30, 80, 3, seed = 12)
    val ops = ReachOps(g)
    val bfl = BFL.build(g, ops.cond)
    val p = Templates.hQuery(2, g) // HQ2 is a tree
    assert(TM.countMatches(ops, bfl, p) == BruteForce.answer(g, p).size)
  }

  test("limit caps TM counts") {
    val g = GraphGen.random(40, 120, 2, seed = 2)
    val ops = ReachOps(g)
    val bfl = BFL.build(g, ops.cond)
    val p = Templates.hQuery(0, g)
    val full = TM.countMatches(ops, bfl, p)
    if (full > 2) assert(TM.countMatches(ops, bfl, p, limit = 2) == 2)
  }

  test("TM counts on the driver: no Spark job even with ≥64 seeds") {
    val g = GraphGen.random(400, 1600, 3, seed = 11)
    val ops = ReachOps(g)
    val bfl = BFL.build(g, ops.cond)
    val p = Templates.hQuery(0, g)
    val (rig, order, _) = TM.prepare(ops, p)
    assert(rig.cos(order(0)).length >= 64, "too few seeds to have distributed the count")
    val (count, jobs) = sparkJobsDuring(TM.countMatches(ops, bfl, p, limit = 100000L))
    assert(jobs == 0)
    assert(count == GM.countMatches(spark, ops, p, GM.Config(limit = 100000L))._1)
  }
}
