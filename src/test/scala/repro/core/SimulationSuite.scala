package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{BruteForce, SeededChecks}
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, PEdge, Pattern, Reach, Templates}

class SimulationSuite extends AnyFunSuite with SeededChecks {

  private def sets(fb: Array[org.roaringbitmap.RoaringBitmap]): Seq[Set[Int]] =
    fb.map(BruteForce.bitmapToSet).toSeq

  test("fbSimBas fixpoint equals the definition-level double simulation") {
    forSeeds(25) { seed =>
      val g = GraphGen.random(25, 60, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "S")
      val got = Simulation.fbSimBas(ops, p, Simulation.matchSets(ops, p))
      val exp = BruteForce.doubleSim(g, p)
      // When FB is empty the implementation clears all sets (early termination).
      if (exp.exists(_.isEmpty)) assert(got.fb.forall(_.isEmpty), s"seed=$seed")
      else assert(sets(got.fb) == exp.toSeq, s"seed=$seed")
    }
  }

  test("fbSimDag equals fbSimBas on dag patterns") {
    forSeeds(25) { seed =>
      val g = GraphGen.random(25, 60, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery(seed.toInt % 8, g) // templates 0..7 are dags
      assume(p.isDag)
      val bas = Simulation.fbSimBas(ops, p, Simulation.matchSets(ops, p))
      val dag = Simulation.fbSimDag(ops, p, Simulation.matchSets(ops, p))
      assert(sets(bas.fb) == sets(dag.fb), s"seed=$seed ${p.name}")
    }
  }

  test("fbSim equals fbSimBas on cyclic patterns (dag + Δ path)") {
    forSeeds(25) { seed =>
      val g = GraphGen.random(25, 70, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery(9, g, seed.toInt % 3) // HQ9 is a directed cycle
      assert(!p.isDag)
      val bas = Simulation.fbSimBas(ops, p, Simulation.matchSets(ops, p))
      val mix = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p))
      assert(sets(bas.fb) == sets(mix.fb), s"seed=$seed")
    }
  }

  test("double simulation never prunes occurrence-set nodes (soundness)") {
    forSeeds(30) { seed =>
      val g = GraphGen.random(22, 55, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed + 1000, "S")
      val os = BruteForce.occurrenceSets(g, p)
      val fb = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p)).fb
      (0 until p.numNodes).foreach { q =>
        assert(os(q).subsetOf(BruteForce.bitmapToSet(fb(q))), s"q=$q seed=$seed")
      }
    }
  }

  test("FB is a subset of the match sets") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(20, 50, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery((seed % 20).toInt, g)
      val ms = Simulation.matchSets(ops, p).map(BruteForce.bitmapToSet)
      val fb = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p)).fb.map(BruteForce.bitmapToSet)
      (0 until p.numNodes).foreach(q => assert(fb(q).subsetOf(ms(q))))
    }
  }

  test("truncated simulation (maxPasses) is sound and a superset of the fixpoint") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(25, 70, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 5, extraEdges = 2, reachProb = 0.5, seed, "S")
      val full = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p)).fb.map(BruteForce.bitmapToSet)
      val trunc = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p), maxPasses = 1).fb
        .map(BruteForce.bitmapToSet)
      val os = BruteForce.occurrenceSets(g, p)
      (0 until p.numNodes).foreach { q =>
        if (!full.exists(_.isEmpty))
          assert(full(q).subsetOf(trunc(q)), s"q=$q seed=$seed")
        assert(os(q).subsetOf(trunc(q)), s"os q=$q seed=$seed")
      }
    }
  }

  test("prefilter is one pass: sound, superset of the full simulation") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(25, 60, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery((seed % 20).toInt, g)
      val pre = Simulation.prefilter(ops, p).map(BruteForce.bitmapToSet)
      val os = BruteForce.occurrenceSets(g, p)
      (0 until p.numNodes).foreach(q => assert(os(q).subsetOf(pre(q))))
    }
  }

  test("empty match set propagates to an all-empty FB (early termination)") {
    val g = GraphGen.random(20, 40, 2, seed = 3)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "no-such-label"), Vector(PEdge(0, 1, Direct)))
    val res = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p))
    assert(res.isEmpty)
    assert(res.fb.forall(_.isEmpty))
  }

  test("prefilter and simulation leave their init sets and the inverted lists unchanged") {
    forSeeds(20) { seed =>
      val g = GraphGen.random(25, 70, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.randomPattern(g, n = 4, extraEdges = 1, reachProb = 0.5, seed, "V")
      val inverted = g.invertedBitmaps.map(BruteForce.bitmapToSet).toSeq
      val memoBefore = memos(ops)
      val init = Simulation.matchSets(ops, p)
      val before = sets(init)
      val pre = Simulation.prefilter(ops, p)
      val preBefore = sets(pre)
      Simulation.fbSim(ops, p, init)
      Simulation.fbSimBas(ops, p, init)
      if (p.isDag) Simulation.fbSimDag(ops, p, init)
      Simulation.fbSim(ops, p, pre)
      Simulation.fbSimBas(ops, p, pre)
      assert(sets(init) == before, s"seed=$seed")
      assert(sets(pre) == preBefore, s"seed=$seed")
      assert(g.invertedBitmaps.map(BruteForce.bitmapToSet).toSeq == inverted, s"seed=$seed")
      assert(memos(ops) == memoBefore, s"seed=$seed")
    }
  }

  /** Every label memo of `ops` as sets (this fills them all). */
  private def memos(ops: ReachOps): Seq[Set[Int]] =
    for (l <- 0 until ops.g.numLabels; path <- Seq(false, true); forward <- Seq(true, false))
      yield BruteForce.bitmapToSet(ops.labelSemijoin(l, path, forward))

  /** Up to `passes` basic sweeps (every edge forward, then every edge
    * backward, in `p.edges` order) from the match sets, each prune one plain
    * `ops.semijoin` with no label memo; all sets cleared if one empties.
    */
  private def referenceFB(ops: ReachOps, p: Pattern, passes: Int): Seq[Set[Int]] = {
    val fb = p.labels.map(l => BruteForce.toBitmap(ops.g.invertedListByName(l))).toArray
    def cards = fb.map(_.getCardinality).toSeq
    var n = 0
    var changed = true
    while (changed && n < passes && !fb.exists(_.isEmpty)) {
      val before = cards
      p.edges.foreach(e => fb(e.from) = ops.semijoin(fb(e.from), fb(e.to), e.kind == Reach, forward = true))
      p.edges.foreach(e => fb(e.to) = ops.semijoin(fb(e.to), fb(e.from), e.kind == Reach, forward = false))
      changed = cards != before
      n += 1
    }
    if (fb.exists(_.isEmpty)) fb.map(_ => Set.empty[Int]).toSeq else sets(fb)
  }

  test("memo-hinted pruning equals plain semijoin pruning on mixed patterns") {
    var nonEmpty = 0
    var refined = 0 // a later pass pruned more: its prunes met sets smaller than ms
    var cyclic = 0
    forSeeds(60) { seed =>
      // One label name that no node carries, besides the absent "no-such-label".
      val g0 = GraphGen.random(40, 130, 3, seed)
      val g = new repro.graph.Graph(g0.labels, g0.labelNames :+ "empty", g0.fwdOff, g0.fwdAdj,
        g0.bwdOff, g0.bwdAdj)
      val ops = ReachOps(g)
      val rnd = new scala.util.Random(seed)
      val random = Templates.randomPattern(g, n = 2 + rnd.nextInt(4), extraEdges = rnd.nextInt(3),
        reachProb = 0.5, seed, "D")
      val patterns = Seq(
        random,
        random.copy(labels = random.labels.updated(rnd.nextInt(random.numNodes), "no-such-label")),
        random.copy(labels = random.labels.updated(rnd.nextInt(random.numNodes), "empty")),
        Pattern("one", Vector(random.labels.head), Vector.empty))
      patterns.foreach { p =>
        val onePass = referenceFB(ops, p, 1)
        val fixpoint = referenceFB(ops, p, Int.MaxValue)
        val ms = Simulation.matchSets(ops, p)
        assert(sets(Simulation.prefilter(ops, p)) == onePass, s"prefilter ${p.labels}")
        assert(sets(Simulation.fbSimBas(ops, p, ms).fb) == fixpoint, s"fbSimBas ${p.labels}")
        assert(sets(Simulation.fbSim(ops, p, ms).fb) == fixpoint, s"fbSim ${p.labels}")
        if (p.isDag) assert(sets(Simulation.fbSimDag(ops, p, ms).fb) == fixpoint, s"fbSimDag ${p.labels}")
        else cyclic += 1
        if (fixpoint.forall(_.nonEmpty) && p.numEdges > 0) nonEmpty += 1
        if (fixpoint != onePass) refined += 1
      }
    }
    assert(nonEmpty > 5)
    assert(refined > 5)
    assert(cyclic > 0)
  }

  test("paper Fig. 2 worked example: FB(A), FB(B), FB(C)") {
    // Data graph G of Fig. 2(b): a0..a2, b0..b3, c0..c2 with labels a, b, c.
    // Node ids: a0=0 a1=1 a2=2 b0=3 b1=4 b2=5 b3=6 c0=7 c1=8 c2=9.
    // Edges reconstructed to reproduce Table 1's simulation sets:
    //   a1->b0 (A->B direct), a2->b2, a1->c0? ... see test body.
    // We encode a graph for which the paper's FB values hold:
    //   FB(A)={a1,a2}, FB(B)={b0,b2}, FB(C)={c0,c1,c2} for
    //   Q: A-child->B, A-child->C, B-desc->C.
    val labels = Array(0, 0, 0, 1, 1, 1, 1, 2, 2, 2) // a,a,a,b,b,b,b,c,c,c
    val names = Array("a", "b", "c")
    val edges = Seq(
      (1, 3), (2, 5),       // a1->b0, a2->b2 (A->B matches)
      (1, 7), (2, 8), (2, 9), // a1->c0, a2->c1, a2->c2 (A->C matches)
      (3, 7), (5, 8), (5, 9), // b0->c0, b2->c1, b2->c2 (B~>C via direct steps)
      (0, 4),               // a0->b1 (a0 lacks a C child; b1 reaches no c)
      (6, 0)                // b3->a0 (b3 has no c descendant ... gives pruning)
    )
    val g = repro.graph.Graph.fromEdges(labels, names, edges)
    val ops = ReachOps(g)
    val q = Pattern("Q", Vector("a", "b", "c"),
      Vector(PEdge(0, 1, Direct), PEdge(0, 2, Direct), PEdge(1, 2, Reach)))
    val fb = Simulation.fbSim(ops, q, Simulation.matchSets(ops, q)).fb
    assert(BruteForce.bitmapToSet(fb(0)) == Set(1, 2))       // {a1, a2}
    assert(BruteForce.bitmapToSet(fb(1)) == Set(3, 5))       // {b0, b2}
    assert(BruteForce.bitmapToSet(fb(2)) == Set(7, 8, 9))    // {c0, c1, c2}
  }
}
