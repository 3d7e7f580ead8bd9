package repro.graph

import org.scalatest.funsuite.AnyFunSuite

/** One registered test per Table 2 dataset family at a small scale: the
  * generator must honor its spec and produce a usable labeled digraph.
  */
class DatasetSuite extends AnyFunSuite {

  GraphGen.specs(0.02).foreach { case (name, spec) =>
    test(s"dataset $name generates per spec at scale 0.02") {
      val g = GraphGen.generate(spec)
      assert(g.numNodes == spec.numNodes)
      assert(g.numLabels == spec.numLabels)
      assert(g.numEdges == spec.numEdges, s"$name has ${g.numEdges} distinct edges")
      // every label id in range; inverted lists cover all nodes
      assert(g.labels.forall(l => l >= 0 && l < g.numLabels))
      assert(g.invertedLists.map(_.length).sum == g.numNodes)
    }
  }

  GraphGen.specs(0.02).keys.foreach { name =>
    test(s"dataset $name query templates instantiate with real labels") {
      val g = GraphGen.dataset(name, 0.02)
      val p = repro.pattern.Templates.hQuery(0, g)
      assert(p.labels.forall(l => g.labelId(l).isDefined))
      assert(p.labels.forall(l => g.invertedListByName(l).nonEmpty))
    }
  }
}
