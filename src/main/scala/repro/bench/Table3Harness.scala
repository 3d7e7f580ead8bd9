package repro.bench

import org.apache.spark.sql.SparkSession
import repro.pattern.{Pattern, Templates}
import repro.util.{TableFmt, Timing}

/** Table 3 — JM vs TM vs GM on ten large random D-queries over the biology
  * graphs hu, hp, yt: failure counts (timeout / out-of-memory), solved count
  * and average solved runtime.
  */
object Table3Harness {

  final case class Row(dataset: String, alg: String, timeOut: Int, oom: Int,
                       solvedCount: Int, avgSolvedSec: Double)

  /** Paper's Table 3 for side-by-side display. */
  val paper: Seq[(String, String, Int, Int, Int, Double)] = Seq(
    ("hu", "JM", 1, 7, 2, 1.51), ("hu", "TM", 3, 0, 7, 16.7), ("hu", "GM", 0, 0, 10, 0.53),
    ("hp", "JM", 2, 4, 4, 1.86), ("hp", "TM", 1, 0, 9, 134.21), ("hp", "GM", 0, 0, 10, 0.58),
    ("yt", "JM", 5, 3, 2, 0.14), ("yt", "TM", 3, 0, 7, 20.8), ("yt", "GM", 0, 0, 10, 0.34),
  )

  private val maxNodes = Map("hu" -> 20, "hp" -> 32, "yt" -> 32)

  /** One cell per query and algorithm; each algorithm runs all ten queries in turn. */
  def run(spark: SparkSession): (Seq[Cell], String) = {
    BenchEnv.quiet(spark)
    val cells = Seq("hu", "hp", "yt").flatMap { ds =>
      val ops = BenchEnv.ops(ds)
      val bfl = BenchEnv.bfl(ds)
      val queries = Templates.biologyDQueries(ops.g, maxNodes(ds), seed = 42)
      def each(alg: String)(runner: Pattern => Timing.Outcome): Seq[Cell] =
        queries.map(q => Cell(Seq(ds, q.name), alg, runner(q)))
      each("JM")(QueryRunners.jm(spark, ops, _)) ++
        each("TM")(QueryRunners.tm(spark, ops, bfl, _)) ++
        each("GM")(QueryRunners.gm(spark, ops, _))
    }
    (cells, render(summarize(cells)))
  }

  /** Per (dataset, algorithm): TO counts timeouts and failures, OM simulated OOMs. */
  def summarize(cells: Seq[Cell]): Seq[Row] =
    cells.map(c => (c.row.head, c.system)).distinct.map { case (ds, alg) =>
      val outs = cells.filter(c => c.row.head == ds && c.system == alg).map(_.outcome)
      val ok = outs.collect { case s: Timing.Solved => s }
      Row(ds, alg,
        outs.count(o => o.isInstanceOf[Timing.TimedOut] || o.isInstanceOf[Timing.Failed]),
        outs.count(_.isInstanceOf[Timing.OutOfMemory]),
        ok.size, if (ok.nonEmpty) ok.map(_.seconds).sum / ok.size else Double.NaN)
    }

  def render(rows: Seq[Row]): String = {
    val paperIx = paper.map(p => (p._1, p._2) -> p).toMap
    TableFmt.render(
      s"Table 3: large D-queries on hu/hp/yt (timeout=${BenchEnv.timeoutSec}s, " +
        s"OOM budget=${BenchEnv.budgetRows} rows, limit=${BenchEnv.limit})",
      Seq("Dataset", "Alg", "TO (paper)", "OM (paper)", "Solved (paper)", "AvgSec (paper)"),
      rows.map { r =>
        val p = paperIx((r.dataset, r.alg))
        Seq(r.dataset, r.alg,
          s"${r.timeOut} (${p._3})", s"${r.oom} (${p._4})",
          s"${r.solvedCount} (${p._5})",
          (if (r.avgSolvedSec.isNaN) "-" else TableFmt.fmtSec(r.avgSolvedSec)) + s" (${p._6})")
      })
  }
}
