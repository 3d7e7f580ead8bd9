package repro.bench

import org.apache.spark.sql.SparkSession
import repro.engines.EHLike
import repro.pattern.Templates
import repro.util.{TableFmt, Timing}

/** Table 5 — EmptyHeaded (EH / EH-probe), Neo4j and GM on twelve C-queries
  * over em and ep, spanning the acyclic / cyclic / clique / combo classes.
  */
object Table5Harness {

  final case class Row(dataset: String, query: String,
                       ehProbe: Timing.Outcome, eh: Timing.Outcome,
                       neo: Timing.Outcome, gm: Timing.Outcome)

  val queryIds = Seq(0, 3, 5, 6, 8, 17, 11, 12, 19, 10, 13, 16)

  /** Paper Table 5 (seconds or failure labels), per dataset and query. */
  val paper: Map[(String, String), (String, String, String, String)] = Map(
    // (ds, CQi) -> (EH-probe, EH, Neo4j, GM)
    ("em", "CQ0") -> ("0.25", "4.09", "0.33", "0.10"),
    ("em", "CQ3") -> ("0.28", "10.66", "13.80", "0.12"),
    ("em", "CQ5") -> ("0.28", "10.67", "34.92", "0.09"),
    ("em", "CQ6") -> ("0.16", "2.89", "1.08", "0.11"),
    ("em", "CQ8") -> ("0.24", "3.89", "0.47", "0.10"),
    ("em", "CQ17") -> ("OM", "OM", "0.49", "0.13"),
    ("em", "CQ11") -> ("0.16", "4.61", "3.30", "0.16"),
    ("em", "CQ12") -> ("0.16", "93.30", "TO", "0.12"),
    ("em", "CQ19") -> ("OM", "OM", "4.09", "0.39"),
    ("em", "CQ10") -> ("0.26", "4.18", "0.29", "0.12"),
    ("em", "CQ13") -> ("0.17", "20.19", "0.31", "0.14"),
    ("em", "CQ16") -> ("FA", "FA", "2.20", "0.14"),
    ("ep", "CQ0") -> ("0.12", "4.00", "0.09", "0.07"),
    ("ep", "CQ3") -> ("0.12", "10.44", "1.07", "0.10"),
    ("ep", "CQ5") -> ("0.13", "10.49", "0.31", "0.03"),
    ("ep", "CQ6") -> ("0.06", "2.84", "0.07", "0.08"),
    ("ep", "CQ8") -> ("0.12", "3.81", "0.09", "0.08"),
    ("ep", "CQ17") -> ("TO", "TO", "0.41", "0.05"),
    ("ep", "CQ11") -> ("0.06", "4.58", "0.07", "0.05"),
    ("ep", "CQ12") -> ("0.06", "90.95", "0.50", "0.09"),
    ("ep", "CQ19") -> ("TO", "TO", "0.96", "0.14"),
    ("ep", "CQ10") -> ("0.11", "4.12", "0.07", "0.07"),
    ("ep", "CQ13") -> ("0.07", "20.26", "0.10", "0.06"),
    ("ep", "CQ16") -> ("OM", "OM", "0.18", "0.06"),
  )

  def run(spark: SparkSession): (Seq[Row], String) = {
    BenchEnv.quiet(spark)
    val rows = for {
      ds <- Seq("em", "ep")
      id <- queryIds
    } yield {
      val ops = BenchEnv.ops(ds)
      val q = Templates.cQuery(id, ops.g)
      // EH: time the precompute and the probe separately, as the paper does.
      // The precompute (trie build) is straight-line work; only the probe
      // enumeration runs under the query budget.
      val prep = EHLike.prepare(ops, q, BenchEnv.limit)
      val probeOutcome = Timing.run(spark, BenchEnv.timeoutSec)(prep.probe())
      val ehOutcome = probeOutcome match {
        case Timing.Solved(sec, n) => Timing.Solved(sec + prep.precomputeSec, n)
        case other => other
      }
      val neoOutcome = QueryRunners.neo(spark, ops, q)
      val gmOutcome = QueryRunners.gm(spark, ops, q)
      Row(ds, q.name, probeOutcome, ehOutcome, neoOutcome, gmOutcome)
    }
    (rows, render(rows))
  }

  def render(rows: Seq[Row]): String =
    TableFmt.render(
      "Table 5: C-queries on em/ep — EH-probe / EH / Neo4j-analogue / GM (seconds; paper in parens)",
      Seq("Dataset", "Query", "EH-probe (paper)", "EH (paper)", "Neo4j (paper)", "GM (paper)"),
      rows.map { r =>
        val p = paper((r.dataset, r.query))
        Seq(r.dataset, r.query,
          s"${Option(r.ehProbe).map(_.shortLabel).getOrElse("FA")} (${p._1})",
          s"${r.eh.shortLabel} (${p._2})",
          s"${r.neo.shortLabel} (${p._3})",
          s"${r.gm.shortLabel} (${p._4})")
      })
}
