package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{JM, TM}
import repro.core.{GM, SearchOrder}
import repro.engines.NeoLike
import repro.graph.GraphDF
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.Pattern
import repro.util.{TableFmt, Timing}
import repro.util.Timing.Outcome

/** One measured outcome of a bench table: `row` holds the table's key
  * columns (e.g. `Seq("em", "HQ4")`), `system` the column it is printed in.
  */
final case class Cell(row: Seq[String], system: String, outcome: Outcome)

/** One [[Timing.Outcome]]-producing runner per algorithm under test, and the
  * one renderer that prints their [[Cell]]s beside the paper's values.
  */
object QueryRunners {

  def gm(spark: SparkSession, ops: ReachOps, p: Pattern,
         order: SearchOrder.Strategy = SearchOrder.JO,
         timeoutSec: Double = BenchEnv.timeoutSec,
         limit: Long = BenchEnv.limit): Outcome =
    Timing.run(spark, timeoutSec) {
      GM.countMatches(spark, ops, p, GM.Config(order = order, limit = limit))._1
    }

  def jm(spark: SparkSession, ops: ReachOps, p: Pattern,
         timeoutSec: Double = BenchEnv.timeoutSec,
         budgetRows: Long = BenchEnv.budgetRows): Outcome =
    Timing.run(spark, timeoutSec)(JM.countMatches(ops, p, budgetRows))

  def tm(spark: SparkSession, ops: ReachOps, bfl: BFL, p: Pattern,
         timeoutSec: Double = BenchEnv.timeoutSec,
         limit: Long = BenchEnv.limit): Outcome =
    Timing.run(spark, timeoutSec)(TM.countMatches(ops, bfl, p, limit))

  def neo(spark: SparkSession, ops: ReachOps, p: Pattern,
          timeoutSec: Double = BenchEnv.timeoutSec,
          budgetRows: Long = BenchEnv.budgetRows): Outcome = {
    val nodes = GraphDF.nodesDF(spark, ops.g).cache()
    val edges = GraphDF.edgesDF(spark, ops.g).cache()
    try Timing.run(spark, timeoutSec)(
      NeoLike.countMatches(spark, nodes, edges, p, budgetRows))
    finally { nodes.unpersist(); edges.unpersist() }
  }

  /** Pivots `cells` into one line per distinct row, in first-seen order, with
    * one `measured (paper)` column per system; `paper(row)` lists the paper's
    * values in `systems` order. A missing cell prints as `-`.
    */
  def render(title: String, keys: Seq[String], systems: Seq[String], cells: Seq[Cell],
             paper: Seq[String] => Seq[Any]): String = {
    val measured = cells.map(c => (c.row, c.system) -> c.outcome.shortLabel).toMap
    TableFmt.render(title, keys ++ systems.map(_ + " (paper)"),
      cells.map(_.row).distinct.map { r =>
        r ++ systems.zip(paper(r)).map { case (s, p) => s"${measured.getOrElse((r, s), "-")} ($p)" }
      })
  }
}
