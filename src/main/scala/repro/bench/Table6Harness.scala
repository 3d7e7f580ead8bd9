package repro.bench

import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen
import repro.graph.reach.ReachOps
import repro.pattern.Templates

/** Table 6 — Neo4j vs GM on twelve H-queries over a 30K-node fragment of em. */
object Table6Harness {

  val queryIds = Seq(0, 3, 5, 6, 8, 17, 11, 12, 19, 10, 13, 16)

  val systems = Seq("Neo4j", "GM")

  /** Paper Table 6 (seconds; ">1h" = did not finish). */
  val paper: Map[String, (String, String)] = Map(
    "HQ0" -> ("51.952", "0.29"), "HQ3" -> ("457.034", "0.22"), "HQ5" -> (">1h", "0.32"),
    "HQ6" -> ("60.119", "0.09"), "HQ8" -> ("35.86", "0.05"), "HQ17" -> ("118.709", "0.02"),
    "HQ11" -> ("54.104", "0.02"), "HQ12" -> (">1h", "0.02"), "HQ19" -> (">1h", "0.04"),
    "HQ10" -> ("319.064", "0.04"), "HQ13" -> (">1h", "1.31"), "HQ16" -> ("476.426", "0.16"),
  )

  def run(spark: SparkSession): (Seq[Cell], String) = {
    BenchEnv.quiet(spark)
    val ops = ReachOps(GraphGen.fragment("em", nodes = 30000, numLabels = 20))
    val cells = queryIds.flatMap { id =>
      val q = Templates.hQuery(id, ops.g)
      Seq(Cell(Seq(q.name), "Neo4j", QueryRunners.neo(spark, ops, q)),
        Cell(Seq(q.name), "GM", QueryRunners.gm(spark, ops, q)))
    }
    (cells, QueryRunners.render(
      "Table 6: H-queries on a 30K-node em fragment — Neo4j-analogue vs GM (seconds; paper in parens)",
      Seq("Query"), systems, cells, r => paper(r.head).productIterator.toSeq))
  }
}
