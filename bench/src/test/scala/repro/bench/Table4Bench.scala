package repro.bench

import repro.SparkSpec
import repro.util.Timing

/** Regenerates Table 4 (search ordering strategies RI / JO / BJ). */
class Table4Bench extends SparkSpec {

  test("Table 4: JO/BJ are competitive; all strategies solve the workload") {
    val (cells, rendered) = Table4Harness.run(spark)
    println(rendered)
    val rows = cells.groupBy(_.row)
    assert(rows.size == 10)
    val ri = cells.filter(_.system == "GM-RI")
    val jo = cells.filter(_.system == "GM-JO")
    val bj = cells.filter(_.system == "GM-BJ")
    assert(Seq(ri, jo, bj).forall(_.size == 10))

    // All three orders must produce a result on every query at this scale.
    cells.foreach { c =>
      assert(c.outcome.isInstanceOf[Timing.Solved], s"${c.row.mkString("/")} ${c.system}")
    }

    // Orders only change the search, never the answer.
    rows.foreach { case (row, cs) =>
      val counts = cs.map(_.outcome).collect { case Timing.Solved(_, n) => n }
      assert(counts.distinct.size == 1, s"${row.mkString("/")} count mismatch: $counts")
    }

    // Paper shape: GM-JO is the overall best performer (total walltime), with
    // BJ close behind — allow generous slack since absolute times are tiny.
    val joTotal = jo.map(_.outcome.seconds).sum
    val riTotal = ri.map(_.outcome.seconds).sum
    val bjTotal = bj.map(_.outcome.seconds).sum
    println(f"[Table4Bench] totals: RI=$riTotal%.2f JO=$joTotal%.2f BJ=$bjTotal%.2f")
    assert(joTotal <= riTotal * 1.5, "JO should not be materially slower than RI overall")
    assert(joTotal <= bjTotal * 1.5, "JO should not be materially slower than BJ overall")
  }
}
