package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.SearchOrder
import repro.pattern.Templates

/** Table 4 — effectiveness of the search ordering methods RI, JO and BJ for
  * H-queries HQ2, HQ3, HQ4, HQ15, HQ18 on em and ep (GM-RI / GM-JO / GM-BJ).
  */
object Table4Harness {

  /** Paper Table 4 (seconds): query -> (em RI, em JO, em BJ, ep RI, ep JO, ep BJ). */
  val paper: Map[String, (Double, Double, Double, Double, Double, Double)] = Map(
    "HQ2" -> (3.64, 1.88, 2.45, 7.00, 2.02, 2.09),
    "HQ3" -> (76.94, 53.75, 53.75, 90.92, 40.15, 41.71),
    "HQ4" -> (3.06, 1.05, 1.05, 4.67, 0.67, 0.88),
    "HQ15" -> (1.33, 7.32, 1.79, 14.77, 2.22, 3.01),
    "HQ18" -> (7.07, 0.99, 1.36, 441.94, 30.18, 38.15),
  )

  val queryIds = Seq(2, 3, 4, 15, 18)

  val systems = Seq("GM-RI", "GM-JO", "GM-BJ")
  private val orders = Seq(SearchOrder.RI, SearchOrder.JO, SearchOrder.BJ)

  def run(spark: SparkSession): (Seq[Cell], String) = {
    BenchEnv.quiet(spark)
    val cells = for {
      ds <- Seq("em", "ep")
      id <- queryIds
      ops = BenchEnv.ops(ds)
      q = Templates.hQuery(id, ops.g)
      (system, order) <- systems.zip(orders)
    } yield Cell(Seq(ds, q.name), system, QueryRunners.gm(spark, ops, q, order))
    (cells, QueryRunners.render(
      "Table 4: search ordering strategies on em/ep (seconds; paper values in parens)",
      Seq("Dataset", "Query"), systems, cells,
      { case Seq(ds, query) =>
        val p = paper(query).productIterator.toSeq
        if (ds == "em") p.take(3) else p.drop(3)
      }))
  }
}
