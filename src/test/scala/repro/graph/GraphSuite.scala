package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.SeededChecks

import scala.util.Random

class GraphSuite extends AnyFunSuite with SeededChecks {

  private def g3 = Graph.fromEdges(
    labels = Array(0, 1, 0, 1),
    labelNames = Array("a", "b"),
    edges = Seq((0, 1), (1, 2), (2, 3), (0, 3)))

  test("numNodes / numEdges / numLabels") {
    val g = g3
    assert(g.numNodes == 4)
    assert(g.numEdges == 4)
    assert(g.numLabels == 2)
  }

  test("avgDegree is 2|E|/|V| as in Table 2") {
    assert(g3.avgDegree == 2.0)
  }

  test("forward adjacency is sorted and correct") {
    val g = g3
    assert(g.outNeighbors(0).toList == List(1, 3))
    assert(g.outNeighbors(1).toList == List(2))
    assert(g.outNeighbors(3).toList == Nil)
  }

  test("backward adjacency is sorted and correct") {
    val g = g3
    assert(g.inNeighbors(3).toList == List(0, 2))
    assert(g.inNeighbors(0).toList == Nil)
  }

  test("hasEdge") {
    val g = g3
    assert(g.hasEdge(0, 1))
    assert(g.hasEdge(0, 3))
    assert(!g.hasEdge(1, 0))
    assert(!g.hasEdge(3, 0))
  }

  test("self-loops and duplicate edges are dropped") {
    val g = Graph.fromEdges(Array(0, 0), Array("a"), Seq((0, 1), (0, 1), (1, 1)))
    assert(g.numEdges == 1)
    assert(g.outNeighbors(1).isEmpty)
  }

  test("fromEdges rejects an endpoint outside the node ids") {
    intercept[IllegalArgumentException](Graph.fromEdges(Array(0, 0), Array("a"), Seq((0, 2))))
    intercept[IllegalArgumentException](Graph.fromEdges(Array(0, 0), Array("a"), Seq((-1, 0))))
    intercept[IllegalArgumentException](Graph.fromEdges(Array.emptyIntArray, Array("a"), Seq((0, 0))))
  }

  test("CSR rows equal the sorted, distinct, loop-free edge list") {
    forSeeds(60) { seed =>
      val rnd = new Random(seed)
      val n = (seed % 12).toInt match { case 0 => 0; case 1 => 1; case _ => 2 + rnd.nextInt(40) }
      // Endpoints drawn from the lower half leave isolated nodes; few distinct
      // endpoints give many duplicates and self-loops.
      val span = math.max(1, if (rnd.nextBoolean()) n / 2 else n)
      val edges = if (n == 0) Seq.empty[(Int, Int)]
        else Seq.fill(rnd.nextInt(4 * n + 1))((rnd.nextInt(span), rnd.nextInt(span)))
      val g = Graph.fromEdges(Array.fill(n)(0), Array("a"), edges)
      val ref = edges.filter { case (u, v) => u != v }.distinct
      assert(g.fwdOff.length == n + 1 && g.bwdOff.length == n + 1)
      assert(g.numEdges == ref.length)
      for (v <- 0 until n) {
        assert(g.outNeighbors(v) == ref.collect { case (`v`, w) => w }.sorted, s"out($v)")
        assert(g.inNeighbors(v) == ref.collect { case (u, `v`) => u }.sorted, s"in($v)")
      }
    }
  }

  test("inverted lists partition nodes by label and are sorted") {
    val g = g3
    assert(g.invertedList(0).toList == List(0, 2))
    assert(g.invertedList(1).toList == List(1, 3))
    assert(g.invertedListByName("a").toList == List(0, 2))
    assert(g.invertedListByName("nope").isEmpty)
  }

  test("inverted bitmaps mirror inverted lists") {
    val g = g3
    assert(g.invertedBitmap(0).toArray.toList == List(0, 2))
    assert(g.invertedBitmap(7).isEmpty)
  }

  test("labelId lookup") {
    val g = g3
    assert(g.labelId("a").contains(0))
    assert(g.labelId("b").contains(1))
    assert(g.labelId("zz").isEmpty)
  }

  test("edgeIterator yields every edge exactly once") {
    assert(g3.edgeIterator.toSet == Set((0, 1), (1, 2), (2, 3), (0, 3)))
  }

  test("degrees") {
    val g = g3
    assert(g.outDegree(0) == 2 && g.inDegree(0) == 0)
    assert(g.outDegree(3) == 0 && g.inDegree(3) == 2)
  }
}

class GraphGenSuite extends AnyFunSuite {

  test("generation is deterministic in the seed") {
    val a = GraphGen.random(50, 150, 4, seed = 7)
    val b = GraphGen.random(50, 150, 4, seed = 7)
    assert(a.labels.toSeq == b.labels.toSeq)
    assert(a.edgeIterator.toSeq == b.edgeIterator.toSeq)
    val c = GraphGen.random(50, 150, 4, seed = 8)
    assert(a.edgeIterator.toSeq != c.edgeIterator.toSeq)
  }

  test("specs carry the paper's Table 2 shapes at scale 1.0") {
    val s = GraphGen.specs(1.0)
    assert(s("yt").numNodes == 3_100 && s("yt").numEdges == 12_000 && s("yt").numLabels == 71)
    assert(s("em").numNodes == 265_000 && s("em").numLabels == 20)
    assert(s("go").numNodes == 876_000 && s("go").numEdges == 5_100_000)
    assert(s.size == 9)
  }

  test("scale shrinks nodes and edges but not labels") {
    val s = GraphGen.specs(0.1)
    assert(s("yt").numNodes == 310)
    assert(s("yt").numLabels == 71)
  }

  test("generated dataset roughly matches its spec") {
    val g = GraphGen.dataset("yt", scale = 0.1)
    assert(g.numNodes == 310)
    assert(g.numEdges >= 1000 && g.numEdges <= 1200) // dedup can drop a few
    assert(g.numLabels == 71)
  }

  test("fragment keeps edge density and overrides labels") {
    val g = GraphGen.fragment("em", nodes = 1000, numLabels = 5)
    assert(g.numNodes == 1000)
    assert(g.numLabels == 5)
    val density = g.numEdges.toDouble / g.numNodes
    assert(density > 0.5 && density < 4.0)
  }

  test("power-law specs produce a heavy-tailed degree distribution") {
    val g = GraphGen.dataset("em", scale = 0.02)
    val degrees = (0 until g.numNodes).map(g.outDegree).sortBy(-_)
    val top1pc = degrees.take(math.max(1, g.numNodes / 100)).map(_.toLong).sum
    assert(top1pc.toDouble / g.numEdges > 0.05, "top 1% of nodes should own a sizable edge share")
  }
}
