package repro.core

import repro.{BruteForce, Oracle, SeededChecks, SparkSpec}
import repro.graph.{GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.{Direct, PEdge, Pattern, PatternSQL, Templates}
import repro.util.Timing

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
    var largest = 0
    forSeeds(12) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 3, extraEdges = 1, reachProb = 0.5, seed + 300, "L")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val order = SearchOrder.jo(rig)
      val answer = BruteForce.answer(g, p)
      largest = largest.max(answer.size)
      Seq(1L, 3L, 7L, Long.MaxValue).foreach { limit =>
        val expected = limit.min(answer.size.toLong)
        val got = scala.collection.mutable.Set.empty[Vector[Int]]
        val n = MJoin.enumerate(rig, order, limit) { t => got += t.toVector; true }
        assert(n == expected && got.size == expected && got.subsetOf(answer), s"limit=$limit")
        val df = MJoin.answerDF(spark, rig, order, limit)
        assert(df.count() == expected, s"answerDF limit=$limit")
        val rows = df.collect().map(r => (0 until p.numNodes).map(i => r.getLong(i).toInt).toVector)
        assert(rows.toSet.subsetOf(answer), s"answerDF limit=$limit")
      }
    }
    assert(largest > 7, "no seed has more answers than the largest limit")
  }

  test("count equals enumerate's count and min(limit, |answer|) under every order") {
    var largest = 0
    val lastConstraints = scala.collection.mutable.Set.empty[Int]
    forSeeds(12) { seed =>
      val (g, ops) = setup(seed)
      val p = Templates.randomPattern(g, n = 3 + (seed % 2).toInt, extraEdges = 1,
        reachProb = 0.5, seed + 900, "K")
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      val answer = BruteForce.answer(g, p)
      largest = largest.max(answer.size)
      Seq(SearchOrder.JO, SearchOrder.RI, SearchOrder.BJ).foreach { strategy =>
        val order = if (rig.isEmpty) Array.range(0, p.numNodes) else SearchOrder.compute(strategy, rig)
        val last = order.last
        lastConstraints += p.edges.count(e => e.from == last || e.to == last)
        Seq(1L, 3L, 7L, Long.MaxValue).foreach { limit =>
          val got = scala.collection.mutable.Set.empty[Vector[Int]]
          val n = MJoin.enumerate(rig, order, limit) { t => got += t.toVector; true }
          val c = MJoin.count(rig, order, limit)
          assert(c == n && c == limit.min(answer.size.toLong) && got.size == n && got.subsetOf(answer),
            s"$strategy limit=$limit: count $c, enumerate $n")
        }
      }
    }
    assert(largest > 7, "no seed has more answers than the largest limit")
    assert(lastConstraints.contains(1) && lastConstraints.exists(_ >= 2),
      s"last-depth constraint counts seen: $lastConstraints")
  }

  test("count on a single-node pattern is |cos(q0)|, capped at limit") {
    val (g, ops) = setup(4)
    val single = Pattern("S", Vector("l1"), Vector.empty)
    val (rig, _) = RIG.build(ops, single, Simulation.matchSets(ops, single))
    val size = rig.cos(0).length.toLong
    assert(size > 7)
    Seq(1L, 3L, 7L, Long.MaxValue).foreach { limit =>
      val got = scala.collection.mutable.Set.empty[Int]
      val n = MJoin.enumerate(rig, Array(0), limit) { t => got += t(0); true }
      val c = MJoin.count(rig, Array(0), limit)
      assert(c == limit.min(size) && n == c && got.size == n && got.subsetOf(rig.cos(0).toSet),
        s"limit=$limit: count $c, enumerate $n")
    }
  }

  test("emit returning false stops enumeration") {
    val (g, ops) = setup(4, n = 40, e = 120)
    val p = Templates.hQuery(0, g)
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(BruteForce.answer(g, p).size > 3)
    var n = 0
    MJoin.enumerate(rig, SearchOrder.jo(rig)) { _ => n += 1; n < 3 }
    assert(n == 3)
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

  /** Hand-built RIG over q0 -> q1, q0 -> q2, q1 -> q2 (order q0, q1, q2).
    * Seed 0 yields the one match (0, 0, 0); every other seed pairs each of
    * its q1 candidates with a fruitless intersection of evens and odds.
    */
  private def stallRig: RIG = {
    val (seeds, mids, half) = (800, 1000, 1000)
    val evens = Array.range(0, 2 * half, 2)
    val odds = Array.range(1, 2 * half, 2)
    val zero = Array(0)
    val p = Pattern("T", Vector("a", "b", "c"),
      Vector(PEdge(0, 1, Direct), PEdge(0, 2, Direct), PEdge(1, 2, Direct)))
    val cos = Array(Array.range(0, seeds), Array.range(0, mids), Array.range(0, 2 * half))
    val fwd = Array(
      Array.tabulate(seeds)(s => if (s == 0) zero else Array.range(1, mids)),
      Array.fill(seeds)(evens),
      Array.tabulate(mids)(m => if (m == 0) zero else odds))
    val bwd = Array(
      Array.tabulate(mids)(m => if (m == 0) zero else Array.range(1, seeds)),
      Array.tabulate(2 * half)(v => if (v % 2 == 0) cos(0) else Array.emptyIntArray),
      Array.tabulate(2 * half)(v =>
        if (v == 0) zero else if (v % 2 == 1) Array.range(1, mids) else Array.emptyIntArray))
    new RIG(p, cos, fwd, bwd)
  }

  test("the deadline stops a search that stalls after its first match") {
    val rig = stallRig
    var matches = 0L
    val (outcome, sec) = Timing.time(Timing.run(spark, budgetSec = 0.2) {
      MJoin.enumerate(rig, Array(0, 1, 2)) { _ => matches += 1; true }
    })
    assert(matches == 1)
    assert(outcome.isInstanceOf[Timing.TimedOut], outcome)
    assert(sec < 1.5, s"stopped after $sec s")
  }

  test("the deadline stops a count that stalls after its first match") {
    val rig = stallRig
    val (outcome, sec) = Timing.time(Timing.run(spark, budgetSec = 0.2) {
      MJoin.count(rig, Array(0, 1, 2))
    })
    assert(outcome.isInstanceOf[Timing.TimedOut], outcome)
    assert(sec < 1.5, s"stopped after $sec s")
  }

  test("the deadline stops an emit that is slow on one long last-depth block") {
    // q0 -> q1 with one seed whose successor row holds every q1 candidate:
    // one advance hands out 2^20 candidates, each taking ~1 µs to emit.
    val size = 1 << 20
    val p = Pattern("B", Vector("a", "b"), Vector(PEdge(0, 1, Direct)))
    val zero = Array(0)
    val rig = new RIG(p, Array(zero, Array.range(0, size)),
      Array(Array(Array.range(0, size))), Array(Array.fill(size)(zero)))
    var emitted = 0L
    val (outcome, sec) = Timing.time(Timing.run(spark, budgetSec = 0.2) {
      MJoin.enumerate(rig, Array(0, 1)) { _ =>
        val until = System.nanoTime() + 1000
        while (System.nanoTime() < until) {}
        emitted += 1
        true
      }
    })
    assert(outcome.isInstanceOf[Timing.TimedOut], outcome)
    assert(sec < 1.5, s"stopped after $sec s")
    assert(emitted < size)
  }

  test("empty RIG enumerates nothing") {
    val (g, ops) = setup(2)
    val p = repro.pattern.Pattern("E", Vector("l0", "zz"),
      Vector(repro.pattern.PEdge(0, 1, repro.pattern.Direct)))
    val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
    assert(MJoin.enumerate(rig, Array(0, 1))(_ => fail("emitted on an empty RIG")) == 0)
    assert(MJoin.count(rig, Array(0, 1)) == 0)
    assert(MJoin.answerDF(spark, rig, Array(0, 1)).count() == 0)
  }
}
