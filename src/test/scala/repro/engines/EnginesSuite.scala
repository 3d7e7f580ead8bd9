package repro.engines

import repro.{BruteForce, SeededChecks, SparkSpec}
import repro.graph.{Graph, GraphDF, GraphGen}
import repro.graph.reach.{ReachOps, TransitiveClosure}
import repro.pattern.Templates
import repro.util.Timing

class NeoLikeSuite extends SparkSpec with SeededChecks {

  test("NeoLike equals brute force on C-queries") {
    forSeeds(6) { seed =>
      val g = GraphGen.random(25, 65, 3, seed)
      val p = Templates.cQuery((seed % 10).toInt, g)
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      val got = NeoLike.countMatches(spark, nodes, edges, p)
      assert(got == BruteForce.answer(g, p).size, s"seed=$seed ${p.name}")
    }
  }

  test("NeoLike handles hybrid queries via APOC-style expansion") {
    forSeeds(5) { seed =>
      val g = GraphGen.random(20, 50, 3, seed)
      val p = Templates.randomPattern(g, n = 3, extraEdges = 1, reachProb = 0.5, seed, "N")
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      val got = NeoLike.countMatches(spark, nodes, edges, p)
      assert(got == BruteForce.answer(g, p).size, s"seed=$seed")
    }
  }

  test("expandReach computes exactly the >=1-edge reachability pairs") {
    val g = GraphGen.random(20, 45, 3, seed = 8)
    val nodes = GraphDF.nodesDF(spark, g)
    val edges = GraphDF.edgesDF(spark, g)
    val reach = BruteForce.reachMatrix(g)
    val got = NeoLike.expandReach(spark, edges, nodes, budgetRows = 1000000, maxIters = 50)
      .collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    val exp = (for (u <- 0 until g.numNodes; v <- 0 until g.numNodes if reach(u).get(v))
      yield (u, v)).toSet
    assert(got == exp)
  }

  test("tiny budget triggers SimulatedOOM") {
    val g = GraphGen.random(40, 150, 2, seed = 3)
    val p = Templates.cQuery(0, g)
    intercept[Timing.SimulatedOOM] {
      NeoLike.countMatches(spark, GraphDF.nodesDF(spark, g), GraphDF.edgesDF(spark, g),
        p, budgetRows = 2)
    }
  }
}

class EHLikeSuite extends SparkSpec with SeededChecks {

  test("EHLike probe equals brute force on C-queries") {
    forSeeds(8) { seed =>
      val g = GraphGen.random(30, 80, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.cQuery((seed % 12).toInt, g)
      val res = EHLike.prepare(ops, p)
      assert(res.precomputeSec >= 0.0)
      assert(res.probe() == BruteForce.answer(g, p).size, s"seed=$seed ${p.name}")
    }
  }

  test("EHLike rejects queries with reachability edges") {
    val g = GraphGen.random(10, 25, 2, seed = 1)
    val ops = ReachOps(g)
    intercept[IllegalArgumentException](EHLike.prepare(ops, Templates.dQuery(0, g)))
  }
}

class GFLikeSuite extends SparkSpec with SeededChecks {

  test("catalog counts label pairs exactly") {
    val g = GraphGen.random(25, 60, 3, seed = 4)
    val nodes = GraphDF.nodesDF(spark, g)
    val edges = GraphDF.edgesDF(spark, g)
    val cat = GFLike.buildCatalog(nodes, edges, entryBudget = Long.MaxValue)
    val exp = g.edgeIterator.toSeq
      .groupBy { case (u, v) => (g.labelNames(g.labels(u)), g.labelNames(g.labels(v))) }
      .view.mapValues(_.size.toLong).toMap
    assert(cat.pairCounts == exp)
    assert(cat.buildSec >= 0.0)
  }

  test("GFLike equals brute force on C-queries") {
    forSeeds(6) { seed =>
      val g = GraphGen.random(28, 70, 3, seed)
      val ops = ReachOps(g)
      val nodes = GraphDF.nodesDF(spark, g)
      val edges = GraphDF.edgesDF(spark, g)
      val cat = GFLike.buildCatalog(nodes, edges, entryBudget = Long.MaxValue)
      val p = Templates.cQuery((seed % 10).toInt, g)
      assert(GFLike.countMatches(ops, cat, p) == BruteForce.answer(g, p).size,
        s"seed=$seed ${p.name}")
    }
  }

  test("GFLike evaluates D-queries over a transitive-closure graph") {
    val g = GraphGen.random(20, 45, 3, seed = 6)
    // Materialize TC and rebuild a graph whose edges are the closure pairs.
    val tcPairs = TransitiveClosure.pairs(g).filter { case (u, v) => u != v }
    val tcGraph = Graph.fromEdges(g.labels, g.labelNames, tcPairs.toSeq)
    val tcOps = ReachOps(tcGraph)
    val nodes = GraphDF.nodesDF(spark, tcGraph)
    val edges = GraphDF.edgesDF(spark, tcGraph)
    val cat = GFLike.buildCatalog(nodes, edges, entryBudget = Long.MaxValue)
    val d = Templates.dQuery(0, g)
    val asC = d.toCQuery // on the TC graph, reach edges become direct edges
    val got = GFLike.countMatches(tcOps, cat, asC)
    // Self-reach pairs (cycles) are dropped by Graph.fromEdges; restrict the
    // brute-force reference to a DAG-ish comparison via the same TC graph.
    val exp = BruteForce.answer(tcGraph, asC).size
    assert(got == exp)
  }

  test("EHLike and GFLike count on the driver without Spark jobs") {
    val g = GraphGen.random(400, 1600, 3, seed = 11)
    val ops = ReachOps(g)
    val p = Templates.cQuery(0, g)
    val cat = GFLike.catalogFromGraph(g)
    val exp = BruteForce.answer(g, p).size.toLong
    val (eh, ehJobs) = sparkJobsDuring(EHLike.prepare(ops, p).probe())
    val (gf, gfJobs) = sparkJobsDuring(GFLike.countMatches(ops, cat, p))
    assert(eh == exp && gf == exp)
    assert(ehJobs == 0 && gfJobs == 0)
  }

  test("catalog entry budget models GF's OOM") {
    val g = GraphGen.random(80, 400, 5, seed = 2)
    val nodes = GraphDF.nodesDF(spark, g)
    val edges = GraphDF.edgesDF(spark, g)
    intercept[Timing.SimulatedOOM] {
      GFLike.buildCatalog(nodes, edges, entryBudget = 2)
    }
  }
}
