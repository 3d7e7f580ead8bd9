package repro.baselines

import org.roaringbitmap.RoaringBitmap
import org.scalatest.funsuite.AnyFunSuite
import repro.{BruteForce, SeededChecks}
import repro.core.{RIG, Simulation}
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, EdgeKind, PEdge, Pattern, Reach}

/** JM's edge relations are rows of [[RIG.edgeMatches]], read forward from the
  * tail's candidates and backward from the head's.
  */
class EdgeMatchesSuite extends AnyFunSuite with SeededChecks {

  /** (tail, head) pairs of ms(e) over `cand`, read in direction `forward`;
    * the rows hold each pair once.
    */
  private def pairsOf(ops: ReachOps, kind: EdgeKind, cand: Array[RoaringBitmap],
                      forward: Boolean): Set[(Int, Int)] = {
    val (src, dst) = if (forward) (cand(0).toArray, cand(1)) else (cand(1).toArray, cand(0))
    val rows = RIG.edgeMatches(ops, kind, src, dst, forward)
    val pairs = src.indices.flatMap(i => rows(i).map(t => if (forward) (src(i), t) else (t, src(i))))
    assert(pairs.size == pairs.distinct.size)
    pairs.toSet
  }

  test("direct-edge match relation equals the label-filtered edge set") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(30, 80, 3, seed)
      val ops = ReachOps(g)
      val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Direct)))
      val cand = Simulation.matchSets(ops, p)
      val exp = g.edgeIterator.filter { case (u, v) =>
        g.labels(u) == 0 && g.labels(v) == 1
      }.toSet
      assert(pairsOf(ops, Direct, cand, forward = true) == exp, s"seed=$seed")
      assert(pairsOf(ops, Direct, cand, forward = false) == exp, s"seed=$seed backward")
    }
  }

  test("reachability-edge match relation equals the label-filtered closure") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(25, 65, 3, seed)
      val ops = ReachOps(g)
      val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Reach)))
      val cand = Simulation.matchSets(ops, p)
      val reach = BruteForce.reachMatrix(g)
      val exp = (for {
        u <- 0 until g.numNodes if g.labels(u) == 0
        v <- 0 until g.numNodes if g.labels(v) == 1 && reach(u).get(v)
      } yield (u, v)).toSet
      assert(pairsOf(ops, Reach, cand, forward = true) == exp, s"seed=$seed")
      assert(pairsOf(ops, Reach, cand, forward = false) == exp, s"seed=$seed backward")
    }
  }

  test("empty candidate sets yield an empty relation") {
    val g = GraphGen.random(15, 30, 2, seed = 6)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "zz"), Vector(PEdge(0, 1, Direct)))
    val cand = Simulation.matchSets(ops, p)
    assert(pairsOf(ops, Direct, cand, forward = true).isEmpty)
  }

  test("candidate restriction filters the relation") {
    val g = GraphGen.random(30, 90, 2, seed = 7)
    val ops = ReachOps(g)
    val p = Pattern("E", Vector("l0", "l1"), Vector(PEdge(0, 1, Direct)))
    val full = Simulation.matchSets(ops, p)
    val restricted = full.map(_.clone())
    val half = full(0).toArray.take(full(0).getCardinality / 2)
    restricted(0).clear()
    half.foreach(restricted(0).add)
    val got = pairsOf(ops, Direct, restricted, forward = true)
    assert(got.forall { case (u, _) => half.contains(u) })
    assert(got == pairsOf(ops, Direct, full, forward = true).filter { case (u, _) => half.contains(u) })
  }
}
