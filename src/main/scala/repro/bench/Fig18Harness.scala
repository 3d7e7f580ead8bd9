package repro.bench

import org.apache.spark.sql.SparkSession
import repro.engines.GFLike
import repro.graph.{Condensation, Graph, GraphDF, GraphGen}
import repro.graph.reach.{BFL, ReachOps, TransitiveClosure}
import repro.pattern.Templates
import repro.util.Timing

/** Fig. 18 (tabular parts, reproduced as a bonus): (a) build times of the BFL
  * index, the transitive closure and the GF catalog on Email fragments; (b)
  * D-query times of Neo4j / GF / GM on 1K-node Email graphs with a varying
  * number of labels.
  */
object Fig18Harness {

  /** Paper Fig 18a: (#lbs, #nodes) -> (BFL s, TC s, CAT s-or-OM). */
  val paperBuild: Seq[(Int, Int, String, String, String)] = Seq(
    (5, 1000, "0.01", "22.95", "5.52"),
    (10, 1000, "0.01", "22.67", "10.84"),
    (15, 1000, "0.01", "23.07", "55.97"),
    (20, 1000, "0.01", "23.58", "323.92"),
    (20, 2000, "0.01", "207.93", "OM"),
    (20, 3000, "0.02", "765.65", "OM"),
  )

  /** Paper Fig 18b (1K-node Email graphs): query -> labels -> (Neo4j, GF, GM). */
  val paperQuery: Map[(String, Int), (String, String, String)] = Map(
    ("DQ4", 5) -> ("981.64", "0.27", "1.12"), ("DQ4", 10) -> ("93.462", "0.12", "0.1"),
    ("DQ4", 15) -> ("5.599", "0.09", "0.01"), ("DQ4", 20) -> ("3.852", "0.09", "0.01"),
    ("DQ15", 5) -> (">1h", "2.69", "13.84"), ("DQ15", 10) -> ("2395.089", "0.26", "0.31"),
    ("DQ15", 15) -> ("573.407", "0.38", "0.03"), ("DQ15", 20) -> ("48.188", "0.39", "0.03"),
    ("DQ16", 5) -> (">1h", "0.70", "4.34"), ("DQ16", 10) -> ("2944.943", "0.25", "0.11"),
    ("DQ16", 15) -> ("542.899", "0.20", "0.07"), ("DQ16", 20) -> ("30.705", "0.36", "0.01"),
  )

  val buildSystems = Seq("BFL s", "TC s", "CAT s")
  val querySystems = Seq("Neo4j", "GF", "GM")

  /** One row per paper (#lbs, #nodes); the BFL build is a `Solved` cell of no rows. */
  def runBuild(spark: SparkSession): (Seq[Cell], String) = {
    BenchEnv.quiet(spark)
    val cells = paperBuild.flatMap { case (l, n, _, _, _) =>
      val g = GraphGen.fragment("em", n, l)
      val (_, bflSec) = Timing.time(BFL.build(g, Condensation(g)))
      val edges = GraphDF.edgesDF(spark, g).cache()
      val nodes = GraphDF.nodesDF(spark, g).cache()
      val tc = Timing.run(spark, BenchEnv.timeoutSec) {
        TransitiveClosure.dataframe(spark, edges).count()
      }
      val cat = Timing.run(spark, BenchEnv.timeoutSec) {
        val c = GFLike.buildCatalog(nodes, edges, entryBudget = BenchEnv.budgetRows)
        c.pairCounts.size.toLong + c.tripleCounts.size
      }
      edges.unpersist(); nodes.unpersist()
      buildSystems.zip(Seq(Timing.Solved(bflSec, 0L), tc, cat))
        .map { case (s, o) => Cell(Seq(l.toString, n.toString), s, o) }
    }
    val paper = paperBuild.map(p => Seq(p._1.toString, p._2.toString) -> Seq(p._3, p._4, p._5)).toMap
    (cells, QueryRunners.render(
      "Fig 18a: build time of BFL vs transitive closure vs GF catalog on em fragments (paper in parens)",
      Seq("#lbs", "#nodes"), buildSystems, cells, paper))
  }

  /** Each label count builds its graphs, their [[ReachOps]] and the GF
    * catalog once for all three queries.
    */
  def runQueries(spark: SparkSession): (Seq[Cell], String) = {
    BenchEnv.quiet(spark)
    val cells = Seq(5, 10, 15, 20).flatMap { l =>
      val g = GraphGen.fragment("em", 1000, l)
      val tcGraph = Graph.fromEdges(g.labels, g.labelNames, TransitiveClosure.pairs(g))
      val ops = ReachOps(g)
      // GF: WCO joins over the pre-materialized transitive closure. As in the
      // paper, TC and catalog construction are excluded from GF query time.
      val tcOps = ReachOps(tcGraph)
      val cat = GFLike.catalogFromGraph(tcGraph)
      Seq(4, 15, 16).flatMap { id =>
        val d = Templates.dQuery(id, g)
        val neo = QueryRunners.neo(spark, ops, d)
        val gf = Timing.run(spark, BenchEnv.timeoutSec) {
          GFLike.countMatches(tcOps, cat, d.toCQuery, BenchEnv.limit)
        }
        val gm = QueryRunners.gm(spark, ops, d)
        querySystems.zip(Seq(neo, gf, gm)).map { case (s, o) => Cell(Seq(s"DQ$id", l.toString), s, o) }
      }
    }
    (cells, QueryRunners.render(
      "Fig 18b: D-queries on 1K-node em graphs — Neo4j / GF / GM (seconds; paper in parens)",
      Seq("Query", "#lbs"), querySystems, cells,
      { case Seq(query, l) => paperQuery((query, l.toInt)).productIterator.toSeq }))
  }
}
