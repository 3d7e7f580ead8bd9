package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.BruteForce
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.Templates

/** Per-template regression battery: one registered test per (template,
  * property) pair so every Fig. 7 shape is exercised individually.
  */
class PerTemplateSimulationSuite extends AnyFunSuite {
  private lazy val g = GraphGen.random(40, 110, 3, seed = 1234)
  private lazy val ops = ReachOps(g)

  Templates.all.foreach { tmpl =>
    test(s"${tmpl.name}: fbSim fixpoint equals definition-level double simulation") {
      val p = Templates.instantiate(tmpl, g)
      val got = Simulation.fbSim(ops, p, Simulation.matchSets(ops, p))
      val exp = BruteForce.doubleSim(g, p)
      if (exp.exists(_.isEmpty)) assert(got.fb.forall(_.isEmpty))
      else assert(got.fb.map(BruteForce.bitmapToSet).toSeq == exp.toSeq)
    }
  }
}

class PerTemplateOrderSuite extends AnyFunSuite {
  private lazy val g = GraphGen.random(40, 110, 3, seed = 4321)
  private lazy val ops = ReachOps(g)

  private def validOrder(rig: RIG, order: Array[Int]): Unit = {
    val p = rig.pattern
    assert(order.sorted.toSeq == (0 until p.numNodes))
    order.indices.drop(1).foreach { i =>
      val prefix = order.take(i).toSet
      assert(p.neighbors(order(i)).exists(prefix))
    }
  }

  Templates.all.foreach { tmpl =>
    for (strategy <- Seq(SearchOrder.JO, SearchOrder.RI, SearchOrder.BJ)) {
      test(s"${tmpl.name}: ${strategy.name} yields a connected permutation") {
        val p = Templates.instantiate(tmpl, g)
        val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
        if (!rig.isEmpty) validOrder(rig, SearchOrder.compute(strategy, rig))
      }
    }
  }
}

class PerTemplateAnswerSuite extends AnyFunSuite {
  private lazy val g = GraphGen.random(35, 90, 3, seed = 777)
  private lazy val ops = ReachOps(g)

  // Brute force is exponential in pattern size; restrict to <= 6-node shapes.
  Templates.all.filter(_.numNodes <= 6).foreach { tmpl =>
    for ((variant, mk) <- Seq[(String, repro.pattern.Pattern => repro.pattern.Pattern)](
      ("H", identity), ("C", _.toCQuery), ("D", _.toDQuery))) {
      test(s"${tmpl.name}/$variant: GM count equals brute force") {
        val p = mk(Templates.instantiate(tmpl, g))
        val (rig, _) = RIG.build(ops, p, Simulation.matchSets(ops, p))
        val count =
          if (rig.isEmpty) 0L
          else MJoin.count(rig, SearchOrder.jo(rig))
        assert(count == BruteForce.answer(g, p).size)
      }
    }
  }
}
