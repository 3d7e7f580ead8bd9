package repro.graph

import repro.{BruteForce, SparkSpec}
import repro.graph.reach.TransitiveClosure

class GraphDFSuite extends SparkSpec {

  test("nodesDF / edgesDF mirror the CSR image") {
    val g = GraphGen.random(40, 100, 3, seed = 1)
    val nodes = GraphDF.nodesDF(spark, g).collect()
    assert(nodes.length == g.numNodes)
    nodes.foreach { r =>
      assert(g.labelNames(g.labels(r.getLong(0).toInt)) == r.getString(1))
    }
    val edges = GraphDF.edgesDF(spark, g).collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(edges == g.edgeIterator.toSet)
  }

  test("fromDF round-trips a graph") {
    val g = GraphGen.random(30, 80, 3, seed = 2)
    val g2 = GraphDF.fromDF(GraphDF.nodesDF(spark, g), GraphDF.edgesDF(spark, g))
    assert(g2.numNodes == g.numNodes)
    assert(g2.edgeIterator.toSet == g.edgeIterator.toSet)
    (0 until g.numNodes).foreach { v =>
      assert(g2.labelNames(g2.labels(v)) == g.labelNames(g.labels(v)))
    }
  }

  test("fromDF rejects non-dense ids") {
    import spark.implicits._
    val nodes = Seq((0L, "a"), (5L, "b")).toDF("id", "label")
    val edges = Seq((0L, 5L)).toDF("src", "dst")
    intercept[IllegalArgumentException](GraphDF.fromDF(nodes, edges))
  }

  test("fromDF rejects an id that an Int cannot hold") {
    import spark.implicits._
    // 2^32 narrows to 0, so the ids would pass as {0, 1}.
    val nodes = Seq((4294967296L, "a"), (1L, "b")).toDF("id", "label")
    val edges = Seq((4294967296L, 1L)).toDF("src", "dst")
    intercept[IllegalArgumentException](GraphDF.fromDF(nodes, edges))
  }

  test("fromDF rejects an edge endpoint outside the node ids") {
    import spark.implicits._
    val nodes = Seq((0L, "a"), (1L, "b")).toDF("id", "label")
    intercept[IllegalArgumentException](
      GraphDF.fromDF(nodes, Seq((0L, 2L)).toDF("src", "dst")))
    intercept[IllegalArgumentException](
      GraphDF.fromDF(nodes, Seq((4294967297L, 0L)).toDF("src", "dst")))
  }
}

class TransitiveClosureSuite extends SparkSpec {

  test("driver-side closure pairs match the BFS matrix") {
    val g = GraphGen.random(25, 60, 3, seed = 3)
    val reach = BruteForce.reachMatrix(g)
    val exp = (for (u <- 0 until g.numNodes; v <- 0 until g.numNodes if reach(u).get(v))
      yield (u, v)).toSet
    assert(TransitiveClosure.pairs(g).toSet == exp)
  }

  test("distributed DataFrame closure equals the driver-side closure") {
    val g = GraphGen.random(30, 70, 3, seed = 4)
    val edges = GraphDF.edgesDF(spark, g)
    val got = TransitiveClosure.dataframe(spark, edges).collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(got == TransitiveClosure.pairs(g).toSet)
  }

  test("closure of a DAG chain contains all ordered pairs") {
    val g = Graph.fromEdges(Array(0, 0, 0, 0), Array("a"),
      Seq((0, 1), (1, 2), (2, 3)))
    val exp = Set((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert(TransitiveClosure.pairs(g).toSet == exp)
  }

  test("closure includes self-pairs exactly for cyclic nodes") {
    val g = Graph.fromEdges(Array(0, 0, 0), Array("a"),
      Seq((0, 1), (1, 0), (1, 2)))
    val pairs = TransitiveClosure.pairs(g).toSet
    assert(pairs.contains((0, 0)) && pairs.contains((1, 1)))
    assert(!pairs.contains((2, 2)))
  }
}
