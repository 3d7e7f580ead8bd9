package repro.bench

import repro.SparkSpec
import repro.util.Timing

/** Regenerates Table 6 (Neo4j-analogue vs GM on H-queries, 30K-node em). */
class Table6Bench extends SparkSpec {

  test("Table 6: GM dominates the binary-join engine on hybrid queries") {
    val (cells, rendered) = Table6Harness.run(spark)
    println(rendered)
    val gm = cells.filter(_.system == "GM")
    val neo = cells.filter(_.system == "Neo4j")
    assert(gm.size == 12 && neo.size == 12)
    assert(gm.map(_.row) == neo.map(_.row))

    // Paper shape 1: GM solves every hybrid query.
    gm.foreach(c => assert(c.outcome.isInstanceOf[Timing.Solved], s"${c.row.head} GM"))

    // Paper shape 2: the Neo4j analogue is slower on every query in the
    // paper (often by orders of magnitude, many >1h). At our scale: strictly
    // slower in total, and slower on a clear majority of individual queries.
    val gmTotal = gm.map(_.outcome.seconds).sum
    val neoTotal = neo.map(_.outcome.seconds).sum
    println(f"[Table6Bench] totals: GM=$gmTotal%.2f Neo=$neoTotal%.2f")
    assert(gmTotal < neoTotal)
    val slower = gm.zip(neo).count { case (g, n) => n.outcome.seconds > g.outcome.seconds }
    assert(slower >= gm.size / 2, s"Neo slower on only $slower/${gm.size} queries")
  }
}
