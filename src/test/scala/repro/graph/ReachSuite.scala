package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{BruteForce, SeededChecks}
import repro.graph.reach.{BFL, ReachOps}

class CondensationSuite extends AnyFunSuite with SeededChecks {

  test("nodes in the same component reach each other (>=1 edge) both ways") {
    forSeeds(41) { seed =>
      val g = GraphGen.random(25, 60, 3, seed)
      val cond = Condensation(g)
      val reach = BruteForce.reachMatrix(g)
      for (u <- 0 until g.numNodes; v <- 0 until g.numNodes if u != v) {
        val same = cond.comp(u) == cond.comp(v)
        val mutual = reach(u).get(v) && reach(v).get(u)
        assert(same == mutual, s"u=$u v=$v seed=$seed")
      }
    }
  }

  test("component ids are a topological order of the condensation DAG") {
    forSeeds(41) { seed =>
      val g = GraphGen.random(30, 80, 3, seed)
      val cond = Condensation(g)
      g.edgeIterator.foreach { case (u, v) =>
        assert(cond.comp(u) <= cond.comp(v))
      }
    }
  }

  test("isCyclic iff the component has >= 2 nodes") {
    val g = Graph.fromEdges(Array(0, 0, 0, 0), Array("a"),
      Seq((0, 1), (1, 0), (1, 2), (2, 3)))
    val cond = Condensation(g)
    assert(cond.isCyclic(cond.comp(0)))
    assert(cond.comp(0) == cond.comp(1))
    assert(!cond.isCyclic(cond.comp(2)))
    assert(!cond.isCyclic(cond.comp(3)))
  }

  test("members CSR partitions the node set") {
    val g = GraphGen.random(40, 100, 3, seed = 9)
    val cond = Condensation(g)
    val all = (0 until cond.numComps).flatMap(cond.members)
    assert(all.sorted == (0 until g.numNodes))
    (0 until cond.numComps).foreach(c => assert(cond.members(c).length == cond.compSize(c)))
  }

  test("dag children/parents are mutually consistent") {
    val g = GraphGen.random(40, 120, 3, seed = 11)
    val cond = Condensation(g)
    for (c <- 0 until cond.numComps; k <- cond.dagChildren(c)) {
      assert(cond.dagParents(k).contains(c))
      assert(c < k)
    }
  }
}

class ReachOpsSuite extends AnyFunSuite with SeededChecks {

  test("predsOf / succsOf are exact one-step neighborhoods") {
    val g = GraphGen.random(30, 90, 3, seed = 21)
    val ops = ReachOps(g)
    val s = BruteForce.toBitmap(Seq(1, 5, 7))
    val expPred = (0 until g.numNodes).filter(u => Seq(1, 5, 7).exists(v => g.hasEdge(u, v)))
    val expSucc = (0 until g.numNodes).filter(v => Seq(1, 5, 7).exists(u => g.hasEdge(u, v)))
    assert(BruteForce.bitmapToSet(ops.predsOf(s)) == expPred.toSet)
    assert(BruteForce.bitmapToSet(ops.succsOf(s)) == expSucc.toSet)
  }

  test("ancestorsOf / descendantsOf match the BFS closure") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(24, 70, 3, seed)
      val ops = ReachOps(g)
      val reach = BruteForce.reachMatrix(g)
      val set = Seq(0, 3, 9).filter(_ < g.numNodes)
      val s = BruteForce.toBitmap(set)
      val expAnc = (0 until g.numNodes).filter(u => set.exists(v => reach(u).get(v))).toSet
      val expDesc = (0 until g.numNodes).filter(v => set.exists(u => reach(u).get(v))).toSet
      assert(BruteForce.bitmapToSet(ops.ancestorsOf(s)) == expAnc, s"anc seed=$seed")
      assert(BruteForce.bitmapToSet(ops.descendantsOf(s)) == expDesc, s"desc seed=$seed")
    }
  }

  test("TargetedReach returns exactly the reachable targets, sorted") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(22, 60, 3, seed)
      val ops = ReachOps(g)
      val reach = BruteForce.reachMatrix(g)
      val targets = (0 until g.numNodes by 3).toArray
      val tr = ops.targeted(targets)
      (0 until g.numNodes).foreach { u =>
        val got = tr.from(u)
        val exp = targets.filter(v => reach(u).get(v))
        assert(got.toList == exp.toList, s"u=$u seed=$seed")
        assert(got.toList == got.toList.sorted)
      }
    }
  }

  test("empty target set yields empty results") {
    val g = GraphGen.random(10, 20, 2, seed = 5)
    val ops = ReachOps(g)
    assert(ops.targeted(Array.empty[Int]).from(0).isEmpty)
    assert(ops.ancestorsOf(new org.roaringbitmap.RoaringBitmap()).isEmpty)
  }
}

class BFLSuite extends AnyFunSuite with SeededChecks {

  test("BFL.reaches matches BFS ground truth on random graphs") {
    forSeeds(33) { seed =>
      val g = GraphGen.random(20, 50, 3, seed)
      val bfl = BFL(g)
      val reach = BruteForce.reachMatrix(g)
      for (u <- 0 until g.numNodes; v <- 0 until g.numNodes)
        assert(bfl.reaches(u, v) == reach(u).get(v), s"u=$u v=$v seed=$seed")
    }
  }

  test("BFL.reaches matches ground truth on a denser cyclic graph") {
    val g = GraphGen.random(60, 300, 3, seed = 77)
    val bfl = BFL(g)
    val reach = BruteForce.reachMatrix(g)
    for (u <- 0 until g.numNodes; v <- 0 until g.numNodes)
      assert(bfl.reaches(u, v) == reach(u).get(v), s"u=$u v=$v")
  }

  test("BFL handles chains and diamonds") {
    val chain = Graph.fromEdges(Array(0, 0, 0, 0), Array("a"), Seq((0, 1), (1, 2), (2, 3)))
    val bfl = BFL(chain)
    assert(bfl.reaches(0, 3) && bfl.reaches(1, 3) && !bfl.reaches(3, 0))
    assert(!bfl.reaches(0, 0)) // no cycle: no self-reach under >=1-edge semantics
    val cyc = Graph.fromEdges(Array(0, 0), Array("a"), Seq((0, 1), (1, 0)))
    val bflC = BFL(cyc)
    assert(bflC.reaches(0, 0) && bflC.reaches(1, 1) && bflC.reaches(0, 1))
  }

  test("bloomBits must be a multiple of 64") {
    val g = GraphGen.random(5, 8, 2, seed = 1)
    intercept[IllegalArgumentException](BFL(g, bloomBits = 100))
  }

  test("BFL builds quickly on a mid-size graph (sanity, Fig 18a premise)") {
    val g = GraphGen.fragment("em", nodes = 20000, numLabels = 10)
    val (_, sec) = repro.util.Timing.time(BFL(g))
    assert(sec < 10.0, s"BFL build took $sec s")
  }
}
