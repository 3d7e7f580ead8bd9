package repro.bench

import repro.SparkSpec
import repro.util.Timing

/** Regenerates Table 5 (EH / Neo4j-analogue / GM on C-queries, em and ep). */
class Table5Bench extends SparkSpec {

  test("Table 5: GM solves every C-query and beats the engines overall") {
    val (cells, rendered) = Table5Harness.run(spark)
    println(rendered)
    val rows = cells.map(_.row).distinct
    assert(rows.size == 24)
    assert(cells.size == 24 * Table5Harness.systems.size)
    val outcome = cells.map(c => (c.row, c.system) -> c.outcome).toMap
    def column(system: String): Seq[Timing.Outcome] = rows.map(r => outcome((r, system)))

    // Paper shape 1: GM solves all queries on both datasets.
    rows.foreach(r => assert(outcome((r, "GM")).isInstanceOf[Timing.Solved], s"${r.mkString("/")} GM"))

    // Paper shape 2: EH total includes its precompute, so wherever both
    // solved, EH total >= EH probe.
    rows.foreach { r =>
      (outcome((r, "EH")), outcome((r, "EH-probe"))) match {
        case (s: Timing.Solved, p: Timing.Solved) =>
          assert(s.seconds >= p.seconds - 0.25, r.mkString("/"))
        case _ => ()
      }
    }

    // Paper shape 3: summed over the workload (failures counted at their
    // elapsed budget), GM is the fastest of the four systems.
    val gmTotal = column("GM").map(_.seconds).sum
    val ehTotal = column("EH").map(_.seconds).sum
    val neoTotal = column("Neo4j").map(_.seconds).sum
    println(f"[Table5Bench] totals: GM=$gmTotal%.2f EH=$ehTotal%.2f Neo=$neoTotal%.2f")
    assert(gmTotal < ehTotal, "GM should beat EH incl. precompute overall")
    assert(gmTotal < neoTotal, "GM should beat the binary-join engine overall")

    // Answers agree wherever GM and the Neo4j analogue both finished
    // (both capped at the same match limit).
    rows.foreach { r =>
      (outcome((r, "GM")), outcome((r, "Neo4j"))) match {
        case (Timing.Solved(_, a), Timing.Solved(_, b)) =>
          assert(a == math.min(b, BenchEnv.limit) || a == b,
            s"${r.mkString("/")}: GM=$a Neo=$b")
        case _ => ()
      }
    }
  }
}
