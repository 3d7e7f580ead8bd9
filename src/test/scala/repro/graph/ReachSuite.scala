package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{BruteForce, SeededChecks}
import repro.graph.reach.{BFL, ReachOps}

import scala.util.Random

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

  test("compSize counts the nodes of each component") {
    val g = GraphGen.random(40, 100, 3, seed = 9)
    val cond = Condensation(g)
    val perComp = new Array[Int](cond.numComps)
    cond.comp.foreach(c => perComp(c) += 1)
    assert(cond.compSize.toSeq == perComp.toSeq)
  }

  test("dag children/parents are mutually consistent") {
    val g = GraphGen.random(40, 120, 3, seed = 11)
    val cond = Condensation(g)
    for (c <- 0 until cond.numComps; k <- cond.dagChildren(c)) {
      assert(cond.dagParents(k).contains(c))
      assert(c < k)
    }
  }

  test("dag rows equal the sorted, distinct cross-component pairs") {
    forSeeds(30) { seed =>
      val rnd = new Random(seed)
      val n = 10 + rnd.nextInt(50)
      // Seeds 0 mod 3 draw a DAG (u < v); the others chain random node blocks
      // into cycles, so large SCCs carry many parallel cross edges.
      val edges =
        if (seed % 3 == 0)
          Seq.fill(2 * n)((rnd.nextInt(n), rnd.nextInt(n))).collect { case (u, v) if u < v => (u, v) }
        else {
          val cuts = (0 +: Seq.fill(3)(rnd.nextInt(n)) :+ n).distinct.sorted
          val cycles = cuts.sliding(2).flatMap { case Seq(a, b) =>
            (a until b).map(v => (v, if (v + 1 < b) v + 1 else a))
          }
          cycles.toSeq ++ Seq.fill(2 * n)((rnd.nextInt(n), rnd.nextInt(n)))
        }
      val g = Graph.fromEdges(Array.fill(n)(0), Array("a"), edges)
      val cond = Condensation(g)
      val ref = edges.map { case (u, v) => (cond.comp(u), cond.comp(v)) }
        .filter { case (a, b) => a != b }.distinct
      assert(cond.dagOff.length == cond.numComps + 1 && cond.dagBwdOff.length == cond.numComps + 1)
      assert(cond.dagAdj.length == ref.length && cond.dagBwdAdj.length == ref.length)
      for (c <- 0 until cond.numComps) {
        assert(cond.dagChildren(c) == ref.collect { case (`c`, k) => k }.sorted, s"children($c)")
        assert(cond.dagParents(c) == ref.collect { case (k, `c`) => k }.sorted, s"parents($c)")
      }
    }
  }
}

class ReachOpsSuite extends AnyFunSuite with SeededChecks {

  private def all(g: Graph) = BruteForce.toBitmap(0 until g.numNodes)

  test("semijoin across a direct edge keeps exact one-step neighborhoods") {
    val g = GraphGen.random(30, 90, 3, seed = 21)
    val ops = ReachOps(g)
    val s = BruteForce.toBitmap(Seq(1, 5, 7))
    val expPred = (0 until g.numNodes).filter(u => Seq(1, 5, 7).exists(v => g.hasEdge(u, v)))
    val expSucc = (0 until g.numNodes).filter(v => Seq(1, 5, 7).exists(u => g.hasEdge(u, v)))
    assert(BruteForce.bitmapToSet(ops.semijoin(all(g), s, path = false, forward = true)) == expPred.toSet)
    assert(BruteForce.bitmapToSet(ops.semijoin(all(g), s, path = false, forward = false)) == expSucc.toSet)
  }

  test("semijoin across a path keeps the BFS closure") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(24, 70, 3, seed)
      val ops = ReachOps(g)
      val reach = BruteForce.reachMatrix(g)
      val set = Seq(0, 3, 9).filter(_ < g.numNodes)
      val s = BruteForce.toBitmap(set)
      val expAnc = (0 until g.numNodes).filter(u => set.exists(v => reach(u).get(v))).toSet
      val expDesc = (0 until g.numNodes).filter(v => set.exists(u => reach(u).get(v))).toSet
      assert(BruteForce.bitmapToSet(ops.semijoin(all(g), s, path = true, forward = true)) == expAnc,
        s"anc seed=$seed")
      assert(BruteForce.bitmapToSet(ops.semijoin(all(g), s, path = true, forward = false)) == expDesc,
        s"desc seed=$seed")
    }
  }

  test("semijoin equals the definition for random keep and other sets, all four cases") {
    var selfReach = 0
    var empties = 0
    forSeeds(30) { seed =>
      val g = GraphGen.random(24, 60, 3, seed)
      val ops = ReachOps(g)
      val reach = BruteForce.reachMatrix(g)
      val rnd = new scala.util.Random(seed)
      // Densities 0 and 1 give empty and full sets; the rest overlap at random.
      def randomSet(): Seq[Int] = {
        val density = Seq(0.0, 0.1, 0.3, 0.6, 1.0)(rnd.nextInt(5))
        (0 until g.numNodes).filter(_ => rnd.nextDouble() < density)
      }
      (0 until 8).foreach { round =>
        val keep = randomSet(); val other = randomSet()
        if (keep.isEmpty || other.isEmpty) empties += 1
        for (path <- Seq(false, true); forward <- Seq(true, false)) {
          def matches(u: Int, v: Int): Boolean =
            if (path) reach(u).get(v) else g.hasEdge(u, v)
          val exp = keep.filter(k => other.exists(o => if (forward) matches(k, o) else matches(o, k)))
          val got = ops.semijoin(BruteForce.toBitmap(keep), BruteForce.toBitmap(other), path, forward)
          assert(got.toArray.toSeq == exp, s"path=$path forward=$forward round=$round")
          if (path) selfReach += exp.count(k => other.contains(k) && reach(k).get(k))
        }
      }
    }
    // The graphs have cycles: some kept member of `other` reaches itself.
    assert(selfReach > 0)
    assert(empties > 0)
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

  test("reverse TargetedReach returns exactly the targets that reach a node, sorted") {
    var selfReach = 0
    forSeeds(20) { seed =>
      val g = GraphGen.random(22, 60, 3, seed)
      val ops = ReachOps(g)
      val reach = BruteForce.reachMatrix(g)
      val targets = (0 until g.numNodes).filter(v => (v + seed) % 3 != 0).toArray
      val tr = ops.targeted(targets, forward = false)
      (0 until g.numNodes).foreach { v =>
        val got = tr.from(v)
        val exp = targets.filter(u => reach(u).get(v))
        assert(got.toList == exp.toList, s"v=$v seed=$seed")
        if (got.contains(v)) selfReach += 1
      }
      assert(ops.targeted(Array.empty[Int], forward = false).from(0).isEmpty)
    }
    // The graphs have cycles: some node is its own reverse target.
    assert(selfReach > 0)
  }

  /** `g` with one more label name that no node carries. */
  private def withEmptyLabel(g: Graph): Graph =
    new Graph(g.labels, g.labelNames :+ "empty", g.fwdOff, g.fwdAdj, g.bwdOff, g.bwdAdj)

  test("labelSemijoin equals semijoin(all nodes, inverted list), all four cases") {
    var cyclic = 0
    forSeeds(24) { seed =>
      val g = withEmptyLabel(GraphGen.random(30, 80, 3, seed))
      val ops = ReachOps(g)
      cyclic += (0 until ops.cond.numComps).count(ops.cond.isCyclic)
      assert(g.invertedList(g.numLabels - 1).isEmpty)
      for (l <- 0 until g.numLabels; path <- Seq(false, true); forward <- Seq(true, false)) {
        val exp = ops.semijoin(all(g), g.invertedBitmap(l), path, forward)
        assert(ops.labelSemijoin(l, path, forward) == exp, s"l=$l path=$path forward=$forward")
        if (l == g.numLabels - 1) assert(exp.isEmpty)
      }
    }
    assert(cyclic > 0)
  }

  test("labelSemijoin returns the same instance on a second call") {
    val g = GraphGen.random(30, 80, 3, seed = 4)
    val ops = ReachOps(g)
    for (l <- 0 until g.numLabels; path <- Seq(false, true); forward <- Seq(true, false))
      assert(ops.labelSemijoin(l, path, forward) eq ops.labelSemijoin(l, path, forward))
  }

  test("two threads filling the same labelSemijoin slot get equal bitmaps") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(2000, 8000, 3, seed)
      val ops = ReachOps(g)
      val path = seed % 2 == 0
      val forward = seed % 4 < 2
      val start = new java.util.concurrent.CyclicBarrier(2)
      val got = new Array[org.roaringbitmap.RoaringBitmap](2)
      val threads = Array.tabulate(2) { i =>
        new Thread(() => { start.await(); got(i) = ops.labelSemijoin(1, path, forward) })
      }
      threads.foreach(_.start())
      threads.foreach(_.join())
      assert(got(0) == got(1))
      assert(got(0) == ops.semijoin(all(g), g.invertedBitmap(1), path, forward))
      assert(ops.labelSemijoin(1, path, forward) eq got(0))
    }
  }

  test("empty target set yields empty results") {
    val g = GraphGen.random(10, 20, 2, seed = 5)
    val ops = ReachOps(g)
    assert(ops.targeted(Array.empty[Int]).from(0).isEmpty)
    assert(ops.semijoin(all(g), new org.roaringbitmap.RoaringBitmap(), path = true, forward = true).isEmpty)
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
