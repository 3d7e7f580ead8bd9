package repro.baselines

import repro.{BruteForce, SeededChecks, SparkSpec}
import repro.core.{GM, RIG, Simulation}
import repro.graph.{Graph, GraphGen}
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.{Pattern, PEdge, Direct, Reach, Templates}
import repro.util.Timing

class JMSuite extends SparkSpec with SeededChecks {

  /** The kind of each of JM's join steps on `p`, from the plan JM picks over
    * the same edge relations: extend from the tail, from the head only, or
    * filter with both ends bound. Empty when JM answers before joining.
    */
  private def stepKinds(ops: ReachOps, p: Pattern): Seq[String] = {
    val cand = Simulation.prefilter(ops, p)
    if (cand.exists(_.isEmpty)) return Nil
    val sizes = p.edges.map(e =>
      RIG.edgeMatches(ops, e.kind, cand(e.from).toArray, cand(e.to)).map(_.length.toLong).sum)
    if (sizes.contains(0L)) return Nil
    val order = JM.planLeftDeep(p, sizes)
    var bound = Set(p.edges(order.head).from)
    order.map { ei =>
      val e = p.edges(ei)
      val kind = if (!bound(e.to)) "tail" else if (!bound(e.from)) "head" else "filter"
      bound ++= Set(e.from, e.to)
      kind
    }
  }

  test("JM equals brute force on random hybrid patterns") {
    val kinds = scala.collection.mutable.Set.empty[String]
    forSeeds(12) { seed =>
      val g = GraphGen.random(28, 70, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "J")
      val (got, jobs) = sparkJobsDuring(JM.countMatches(ops, p))
      assert(got == BruteForce.answer(g, p).size, s"seed=$seed")
      assert(jobs == 0, s"seed=$seed")
      kinds ++= stepKinds(ops, p)
    }
    assert(kinds == Set("tail", "head", "filter"))
  }

  test("JM equals brute force on template C- and D-queries") {
    val g = GraphGen.random(35, 90, 3, seed = 5)
    val ops = ReachOps(g)
    Seq(0, 6).foreach { id =>
      val c = Templates.cQuery(id, g)
      assert(JM.countMatches(ops, c) == BruteForce.answer(g, c).size, s"CQ$id")
      val d = Templates.dQuery(id, g)
      assert(JM.countMatches(ops, d) == BruteForce.answer(g, d).size, s"DQ$id")
    }
  }

  test("JM counts the candidates of a single-node pattern") {
    val g = GraphGen.random(20, 40, 3, seed = 4)
    val p = Pattern("S", Vector("l0"), Vector.empty)
    assert(JM.countMatches(ReachOps(g), p) == BruteForce.answer(g, p).size)
  }

  test("tiny row budget triggers SimulatedOOM (intermediate explosion model)") {
    val g = GraphGen.random(60, 200, 2, seed = 3)
    val ops = ReachOps(g)
    val p = Templates.dQuery(0, g) // chain of reach edges: big match sets
    intercept[Timing.SimulatedOOM] {
      JM.countMatches(ops, p, budgetRows = 3)
    }
    // Every edge relation fits 1,600 rows (the largest has 870); a join step
    // outgrows it, on the driver.
    val (oom, jobs) = sparkJobsDuring {
      intercept[Timing.SimulatedOOM](JM.countMatches(ops, p, budgetRows = 1600))
    }
    assert(oom.getMessage.startsWith("intermediate result"), oom.getMessage)
    assert(jobs == 0)
  }

  test("an over-budget edge relation fails before any Spark job") {
    val g = GraphGen.random(60, 200, 2, seed = 3)
    val ops = ReachOps(g)
    val p = Templates.dQuery(0, g)
    val (_, jobs) = sparkJobsDuring {
      intercept[Timing.SimulatedOOM] {
        JM.countMatches(ops, p, budgetRows = 3)
      }
    }
    assert(jobs == 0)
  }

  test("JM honours the deadline inside a join") {
    // One SCC: every node reaches every node, so each of the 12 reachability
    // edges of a 4-clique holds all 55 x 55 label pairs. The relations take
    // milliseconds; the joins grow to 55^4 partial matches and filter them
    // nine times, seconds of work under the default row budget.
    val n = 220
    val g = Graph.fromEdges(Array.tabulate(n)(_ % 4), Array("l0", "l1", "l2", "l3"),
      (0 until n).map(v => (v, (v + 1) % n)))
    val p = Pattern("K4", Vector("l0", "l1", "l2", "l3"),
      for (a <- Vector.range(0, 4); b <- Vector.range(0, 4) if a != b) yield PEdge(a, b, Reach))
    val out = Timing.run(spark, 0.2)(JM.countMatches(ReachOps(g), p))
    assert(out.isInstanceOf[Timing.TimedOut], out)
    assert(out.seconds < 1.5, out)
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
