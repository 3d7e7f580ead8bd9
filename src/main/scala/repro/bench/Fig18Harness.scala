package repro.bench

import org.apache.spark.sql.SparkSession
import repro.engines.{GFLike, NeoLike}
import repro.graph.{Graph, GraphDF, GraphGen}
import repro.graph.reach.{BFL, ReachOps, TransitiveClosure}
import repro.pattern.Templates
import repro.util.{TableFmt, Timing}

/** Fig. 18 (tabular parts, reproduced as a bonus): (a) build times of the BFL
  * index, the transitive closure and the GF catalog on Email fragments; (b)
  * D-query times of Neo4j / GF / GM on 1K-node Email graphs with a varying
  * number of labels.
  */
object Fig18Harness {

  final case class BuildRow(labels: Int, nodes: Int, bflSec: Double,
                            tc: Timing.Outcome, cat: Timing.Outcome)
  final case class QueryRow(query: String, labels: Int,
                            neo: Timing.Outcome, gf: Timing.Outcome, gm: Timing.Outcome)

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

  def fragment(nodes: Int, labels: Int): Graph =
    GraphGen.fragment("em", nodes, labels)

  def runBuild(spark: SparkSession): (Seq[BuildRow], String) = {
    BenchEnv.quiet(spark)
    val configs = Seq((5, 1000), (10, 1000), (15, 1000), (20, 1000), (20, 2000), (20, 3000))
    val rows = configs.map { case (l, n) =>
      val g = fragment(n, l)
      val cond = repro.graph.Condensation(g)
      val (_, bflSec) = Timing.time(BFL.build(g, cond))
      val edges = GraphDF.edgesDF(spark, g).cache()
      val nodesDF = GraphDF.nodesDF(spark, g).cache()
      val tcOutcome = Timing.run(spark, BenchEnv.timeoutSec) {
        TransitiveClosure.dataframe(spark, edges).count()
      }
      val catOutcome = Timing.run(spark, BenchEnv.timeoutSec) {
        val cat = GFLike.buildCatalog(nodesDF, edges,
          entryBudget = BenchEnv.budgetRows)
        cat.pairCounts.size.toLong + cat.tripleCounts.size
      }
      edges.unpersist(); nodesDF.unpersist()
      BuildRow(l, n, bflSec, tcOutcome, catOutcome)
    }
    (rows, renderBuild(rows))
  }

  def runQueries(spark: SparkSession): (Seq[QueryRow], String) = {
    BenchEnv.quiet(spark)
    val ids = Seq(4, 15, 16)
    val rows = for {
      l <- Seq(5, 10, 15, 20)
      (graph, tcGraph) = {
        val g = fragment(1000, l)
        val tcPairs = TransitiveClosure.pairs(g).filter { case (u, v) => u != v }
        (g, Graph.fromEdges(g.labels, g.labelNames, tcPairs.toSeq))
      }
      id <- ids
    } yield {
      val ops = ReachOps(graph)
      val d = Templates.dQuery(id, graph)
      val neoOut = QueryRunners.neo(spark, ops, d)
      // GF: WCO joins over the pre-materialized transitive closure. As in the
      // paper, TC and catalog construction are excluded from GF query time.
      val tcOps = ReachOps(tcGraph)
      val cat = GFLike.catalogFromGraph(tcGraph)
      val gfOut = Timing.run(spark, BenchEnv.timeoutSec) {
        GFLike.countMatches(tcOps, cat, d.toCQuery, BenchEnv.limit)
      }
      val gmOut = QueryRunners.gm(spark, ops, d)
      QueryRow(s"DQ$id", l, neoOut, gfOut, gmOut)
    }
    (rows, renderQueries(rows))
  }

  def renderBuild(rows: Seq[BuildRow]): String = {
    val ix = paperBuild.map(p => (p._1, p._2) -> p).toMap
    TableFmt.render(
      "Fig 18a: build time of BFL vs transitive closure vs GF catalog on em fragments (paper in parens)",
      Seq("#lbs", "#nodes", "BFL s (paper)", "TC s (paper)", "CAT s (paper)"),
      rows.map { r =>
        val p = ix((r.labels, r.nodes))
        Seq(r.labels.toString, r.nodes.toString,
          s"${TableFmt.fmtSec(r.bflSec)} (${p._3})",
          s"${r.tc.shortLabel} (${p._4})",
          s"${r.cat.shortLabel} (${p._5})")
      })
  }

  def renderQueries(rows: Seq[QueryRow]): String =
    TableFmt.render(
      "Fig 18b: D-queries on 1K-node em graphs — Neo4j / GF / GM (seconds; paper in parens)",
      Seq("Query", "#lbs", "Neo4j (paper)", "GF (paper)", "GM (paper)"),
      rows.map { r =>
        val p = paperQuery((r.query, r.labels))
        Seq(r.query, r.labels.toString,
          s"${r.neo.shortLabel} (${p._1})",
          s"${r.gf.shortLabel} (${p._2})",
          s"${r.gm.shortLabel} (${p._3})")
      })
}
