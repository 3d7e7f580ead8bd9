package repro.baselines

import repro.{BruteForce, SeededChecks, SparkSpec}
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, PEdge, Pattern, Reach}

class EdgeMatchesSuite extends SparkSpec with SeededChecks {

  private def pairsOf(df: org.apache.spark.sql.DataFrame): Set[(Int, Int)] =
    df.collect().map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet

  test("direct-edge match relation equals the label-filtered edge set") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(30, 80, 3, seed)
      val ops = ReachOps(g)
      val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Direct)))
      val cand = repro.core.Simulation.matchSets(ops, p)
      val (df, rows) = JM.edgeRelation(spark, ops, p, 0, cand)
      val got = pairsOf(df)
      assert(rows == got.size, s"seed=$seed")
      val exp = g.edgeIterator.filter { case (u, v) =>
        g.labels(u) == 0 && g.labels(v) == 1
      }.toSet
      assert(got == exp, s"seed=$seed")
    }
  }

  test("reachability-edge match relation equals the label-filtered closure") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(25, 65, 3, seed)
      val ops = ReachOps(g)
      val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Reach)))
      val cand = repro.core.Simulation.matchSets(ops, p)
      val (df, rows) = JM.edgeRelation(spark, ops, p, 0, cand)
      val got = pairsOf(df)
      assert(rows == got.size, s"seed=$seed")
      val reach = BruteForce.reachMatrix(g)
      val exp = (for {
        u <- 0 until g.numNodes if g.labels(u) == 0
        v <- 0 until g.numNodes if g.labels(v) == 1 && reach(u).get(v)
      } yield (u, v)).toSet
      assert(got == exp, s"seed=$seed")
    }
  }

  test("column names follow the pattern's q<i> convention") {
    val g = GraphGen.random(15, 30, 2, seed = 5)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "l1", "l0"),
      Vector(PEdge(0, 1, Direct), PEdge(2, 1, Reach)))
    val cand = repro.core.Simulation.matchSets(ops, p)
    assert(JM.edgeRelation(spark, ops, p, 0, cand)._1.columns.toSeq == Seq("q0", "q1"))
    assert(JM.edgeRelation(spark, ops, p, 1, cand)._1.columns.toSeq == Seq("q2", "q1"))
  }

  test("empty candidate sets yield an empty relation") {
    val g = GraphGen.random(15, 30, 2, seed = 6)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "zz"), Vector(PEdge(0, 1, Direct)))
    val cand = repro.core.Simulation.matchSets(ops, p)
    assert(JM.edgeRelation(spark, ops, p, 0, cand)._1.count() == 0)
  }

  test("candidate restriction filters the relation") {
    val g = GraphGen.random(30, 90, 2, seed = 7)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Direct)))
    val full = repro.core.Simulation.matchSets(ops, p)
    val restricted = full.map(_.clone())
    val half = full(0).toArray.take(full(0).getCardinality / 2)
    restricted(0).clear()
    half.foreach(restricted(0).add)
    val got = pairsOf(JM.edgeRelation(spark, ops, p, 0, restricted)._1)
    assert(got.forall { case (u, _) => half.contains(u) })
  }
}
