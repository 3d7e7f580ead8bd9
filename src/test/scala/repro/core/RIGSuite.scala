package repro.core

import repro.{BruteForce, SeededChecks, SparkSpec}
import repro.graph.{Graph, GraphGen}
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, PEdge, Pattern, Reach, Templates}
import repro.util.Timing

class RIGSuite extends SparkSpec with SeededChecks {

  test("RIG edges sandwich the answer: os(e) ⊆ cos(e) ⊆ ms(e)") {
    forSeeds(25) { seed =>
      val g = GraphGen.random(25, 60, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "R")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val reach = BruteForce.reachMatrix(g)
      val answers = BruteForce.answer(g, p)
      p.edges.indices.foreach { ei =>
        val e = p.edges(ei)
        val cosE = (for {
          (vp, pos) <- rig.cos(e.from).zipWithIndex
          vq <- rig.fwdAdj(ei)(pos)
        } yield (vp, vq)).toSet
        // cos(e) ⊆ ms(e): every RIG edge is a genuine edge match
        cosE.foreach { case (u, v) =>
          e.kind match {
            case Direct => assert(g.hasEdge(u, v), s"($u,$v) e=$ei seed=$seed")
            case Reach => assert(reach(u).get(v), s"($u,$v) e=$ei seed=$seed")
          }
        }
        // os(e) ⊆ cos(e): the answer projects into the RIG
        answers.foreach { t =>
          assert(cosE.contains((t(e.from), t(e.to))), s"missing os edge, e=$ei seed=$seed")
        }
      }
    }
  }

  test("backward adjacency is the exact transpose of forward adjacency") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(30, 80, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery((seed % 20).toInt, g)
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      p.edges.indices.foreach { ei =>
        val e = p.edges(ei)
        val fwdPairs = (for {
          (vp, pos) <- rig.cos(e.from).zipWithIndex
          vq <- rig.fwdAdj(ei)(pos)
        } yield (vp, vq)).toSet
        val bwdPairs = (for {
          (vq, pos) <- rig.cos(e.to).zipWithIndex
          vp <- rig.bwdAdj(ei)(pos)
        } yield (vp, vq)).toSet
        assert(fwdPairs == bwdPairs, s"e=$ei seed=$seed")
        rig.bwdAdj(ei).foreach(l => assert(l.toSeq == l.toSeq.sorted))
        rig.fwdAdj(ei).foreach(l => assert(l.toSeq == l.toSeq.sorted))
      }
    }
  }

  test("members of a cyclic SCC share one reach row in both directions") {
    // a-nodes 0->1->2->0 form an SCC, b-nodes 3<->4 another; 5 (a) and 6 (b) are acyclic.
    val g = Graph.fromEdges(Array(0, 0, 0, 1, 1, 0, 1), Array("a", "b"),
      Seq((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 6), (5, 0)))
    val p = Pattern("S", Vector("a", "b"), Vector(PEdge(0, 1, Reach)))
    val ops = ReachOps(g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    val fwd = Seq(0, 1, 2, 5).map(v => rig.fwdAdj(0)(rig.posIn(0, v)))
    val bwd = Seq(3, 4, 6).map(v => rig.bwdAdj(0)(rig.posIn(1, v)))
    fwd.foreach(row => assert(row.toSeq == Seq(3, 4, 6)))
    bwd.foreach(row => assert(row.toSeq == Seq(0, 1, 2, 5)))
    assert((fwd(0) eq fwd(1)) && (fwd(1) eq fwd(2)))
    assert(bwd(0) eq bwd(1))
  }

  test("empty simulation yields an empty RIG (early termination)") {
    val g = GraphGen.random(20, 30, 2, seed = 2)
    val ops = ReachOps(g)
    val p = repro.pattern.Pattern("E", Vector("l0", "zz"),
      Vector(repro.pattern.PEdge(0, 1, Direct)))
    val (rig, sim) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(sim.isEmpty && rig.isEmpty && rig.size == 0)
  }

  test("successors/predecessors accessors agree with the raw arrays") {
    val g = GraphGen.random(40, 120, 3, seed = 8)
    val ops = ReachOps(g)
    val p = Templates.hQuery(6, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    p.edges.indices.foreach { ei =>
      val e = p.edges(ei)
      rig.cos(e.from).zipWithIndex.foreach { case (v, pos) =>
        assert(rig.successors(ei, v).toSeq == rig.fwdAdj(ei)(pos).toSeq)
      }
      assert(rig.successors(ei, -99).isEmpty)
      assert(rig.predecessors(ei, -99).isEmpty)
    }
  }

  test("expansion honours the query deadline") {
    val g = GraphGen.random(400, 1600, 3, seed = 5)
    val ops = ReachOps(g)
    val p = Templates.hQuery(0, g)
    val sim = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p), 3)
    assert(!sim.fb.exists(_.isEmpty))
    // A negative budget has expired before the thunk starts, so only a
    // deadline check inside the expansion loop can stop it.
    val outcome = Timing.run(spark, budgetSec = -1.0) {
      RIG.expand(ops, p, sim.fb).numEdges
    }
    assert(outcome.isInstanceOf[Timing.TimedOut], outcome)
  }

  test("simulation honours the query deadline") {
    val g = GraphGen.random(400, 1600, 3, seed = 5)
    val ops = ReachOps(g)
    val p = Templates.hQuery(0, g)
    // An expired budget: only a deadline check inside the passes can stop them.
    val outcome = Timing.run(spark, budgetSec = -1.0) {
      Simulation.fbSim(ops, p, Simulation.matchSets(ops, p)).passes.toLong
    }
    assert(outcome.isInstanceOf[Timing.TimedOut], outcome)
  }

  test("RIG size accounting") {
    val g = GraphGen.random(30, 80, 3, seed = 13)
    val ops = ReachOps(g)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(rig.numNodes == rig.cos.map(_.length.toLong).sum)
    assert(rig.numEdges == rig.fwdAdj.map(_.map(_.length.toLong).sum).sum)
    assert(rig.size == rig.numNodes + rig.numEdges)
  }
}
