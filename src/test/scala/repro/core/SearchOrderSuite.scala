package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.SeededChecks
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.Templates

class SearchOrderSuite extends AnyFunSuite with SeededChecks {

  private def rigFor(seed: Long, templateId: Int): RIG = {
    val g = GraphGen.random(40, 110, 3, seed)
    val ops = ReachOps(g)
    val p = Templates.hQuery(templateId, g)
    RIG.build(ops, p, Simulation.matchSets(ops, p))._1
  }

  private def assertValidOrder(rig: RIG, order: Array[Int]): Unit = {
    val p = rig.pattern
    assert(order.sorted.toSeq == (0 until p.numNodes), "must be a permutation")
    // Every node after the first must touch the prefix (connected order).
    order.indices.drop(1).foreach { i =>
      val prefix = order.take(i).toSet
      assert(p.neighbors(order(i)).exists(prefix), s"node ${order(i)} disconnected at $i")
    }
  }

  test("JO produces valid connected permutations on all templates") {
    (0 until 20).foreach { id =>
      val rig = rigFor(3 + id, id)
      if (!rig.isEmpty) assertValidOrder(rig, SearchOrder.jo(rig))
    }
  }

  test("RI produces valid connected permutations on all templates") {
    (0 until 20).foreach { id =>
      val rig = rigFor(3 + id, id)
      assertValidOrder(rig, SearchOrder.ri(rig.pattern))
    }
  }

  test("BJ produces valid connected permutations on small templates") {
    (0 until 20).foreach { id =>
      val rig = rigFor(3 + id, id)
      if (!rig.isEmpty) assertValidOrder(rig, SearchOrder.bj(rig))
    }
  }

  test("JO starts at the smallest candidate set") {
    forSeeds(10) { seed =>
      val rig = rigFor(seed, (seed % 10).toInt)
      if (!rig.isEmpty) {
        val order = SearchOrder.jo(rig)
        val minCard = rig.cos.map(_.length).min
        assert(rig.cos(order(0)).length == minCard)
      }
    }
  }

  test("RI is independent of the data graph") {
    val a = rigFor(5, 8)
    val b = rigFor(99, 8)
    assert(SearchOrder.ri(a.pattern).toSeq == SearchOrder.ri(b.pattern).toSeq)
  }

  test("compute dispatches by strategy") {
    val rig = rigFor(7, 6)
    assert(SearchOrder.compute(SearchOrder.JO, rig).toSeq == SearchOrder.jo(rig).toSeq)
    assert(SearchOrder.compute(SearchOrder.RI, rig).toSeq == SearchOrder.ri(rig.pattern).toSeq)
    assert(SearchOrder.compute(SearchOrder.BJ, rig).toSeq == SearchOrder.bj(rig).toSeq)
  }

  test("all three strategies enumerate the same answers through MJoin") {
    forSeeds(10) { seed =>
      val g = GraphGen.random(35, 90, 3, seed)
      val ops = ReachOps(g)
      val p = Templates.hQuery((seed % 10).toInt, g)
      val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
      if (!rig.isEmpty) {
        def count(o: Array[Int]): Long = MJoin.count(rig, o)
        val cJo = count(SearchOrder.jo(rig))
        val cRi = count(SearchOrder.ri(rig.pattern))
        val cBj = count(SearchOrder.bj(rig))
        assert(cJo == cRi && cRi == cBj, s"seed=$seed: $cJo $cRi $cBj")
      }
    }
  }
}
