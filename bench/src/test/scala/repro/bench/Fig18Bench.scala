package repro.bench

import repro.SparkSpec
import repro.util.Timing

/** Regenerates the tabular parts of Fig. 18 (bonus: index-build cost and
  * D-query comparison with engines needing a transitive closure).
  */
class Fig18Bench extends SparkSpec {

  test("Fig 18a: BFL builds orders of magnitude faster than the closure") {
    val (cells, rendered) = Fig18Harness.runBuild(spark)
    println(rendered)
    val bfl = cells.filter(_.system == "BFL s")
    val tc = cells.filter(_.system == "TC s")
    assert(bfl.size == 6 && tc.size == 6 && cells.size == 18)
    assert(bfl.map(_.row) == tc.map(_.row))
    bfl.zip(tc).foreach { case (b, t) =>
      val bflSec = b.outcome.seconds
      // BFL is near-instant at these sizes.
      assert(b.outcome.isInstanceOf[Timing.Solved] && bflSec < 2.0, s"BFL should be cheap (${bflSec}s)")
      // TC build (when it finishes) dwarfs BFL build.
      t.outcome match {
        case Timing.Solved(sec, _) => assert(sec > bflSec, s"TC $sec vs BFL $bflSec")
        case _ => () // timing out only strengthens the paper's point
      }
    }
    // TC cost grows with the node count (or times out at the top end).
    val tc1k = tc.find(_.row == Seq("20", "1000")).get.outcome.seconds
    val tc3k = tc.find(_.row == Seq("20", "3000")).get.outcome.seconds
    assert(tc3k >= tc1k * 0.8, s"TC should not get cheaper with size: $tc1k vs $tc3k")
  }

  test("Fig 18b: GM evaluates D-queries without materializing any closure") {
    val (cells, rendered) = Fig18Harness.runQueries(spark)
    println(rendered)
    val gm = cells.filter(_.system == "GM")
    val neo = cells.filter(_.system == "Neo4j")
    assert(gm.size == 12 && neo.size == 12 && cells.size == 36)
    gm.foreach(c => assert(c.outcome.isInstanceOf[Timing.Solved], s"${c.row.mkString("/")} GM"))
    // Paper shape: the binary-join engine (no reachability index) is the
    // worst performer overall.
    val gmTotal = gm.map(_.outcome.seconds).sum
    val neoTotal = neo.map(_.outcome.seconds).sum
    println(f"[Fig18Bench] totals: GM=$gmTotal%.2f Neo=$neoTotal%.2f")
    assert(gmTotal < neoTotal)
  }
}
