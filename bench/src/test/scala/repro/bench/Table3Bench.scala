package repro.bench

import repro.SparkSpec

/** Regenerates Table 3 (JM / TM / GM on large D-queries over hu, hp, yt). */
class Table3Bench extends SparkSpec {

  test("Table 3: GM solves all large D-queries; JM and TM do not") {
    val (cells, rendered) = Table3Harness.run(spark)
    println(rendered)
    assert(cells.size == 90)
    val rows = Table3Harness.summarize(cells)
    val gm = rows.filter(_.alg == "GM")
    val jm = rows.filter(_.alg == "JM")
    val tm = rows.filter(_.alg == "TM")

    // Paper shape 1: GM solves every query on every dataset.
    gm.foreach(r => assert(r.solvedCount == 10, s"GM should solve all on ${r.dataset}"))

    // Paper shape 2: JM fails on a substantial share of the large queries
    // (out-of-memory from intermediate explosions and/or timeouts).
    val jmFailures = jm.map(r => r.timeOut + r.oom).sum
    assert(jmFailures > 0, "JM should fail on some large D-queries")
    assert(jm.map(_.oom).sum > 0, "JM failures should include out-of-memory cases")

    // Paper shape 3: per dataset, GM solves at least as many queries as
    // either baseline, and strictly more than JM overall.
    rows.groupBy(_.dataset).foreach { case (ds, rs) =>
      val byAlg = rs.map(r => r.alg -> r).toMap
      assert(byAlg("GM").solvedCount >= byAlg("TM").solvedCount, ds)
      assert(byAlg("GM").solvedCount >= byAlg("JM").solvedCount, ds)
    }
    assert(gm.map(_.solvedCount).sum > jm.map(_.solvedCount).sum)

    // Paper shape 4: on the queries everyone solved, GM's average is not
    // slower than TM's (paper: up to two orders of magnitude faster).
    val tmAvg = tm.filter(_.solvedCount > 0).map(_.avgSolvedSec)
    val gmAvg = gm.map(_.avgSolvedSec)
    assert(gmAvg.sum <= tmAvg.sum * 2.0,
      s"GM total avg ${gmAvg.sum} should not exceed TM's ${tmAvg.sum} materially")
  }
}
