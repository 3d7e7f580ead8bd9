package repro.util

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.execution.LogicalRDD
import repro.SparkSpec
import repro.bench.{Cell, QueryRunners}

class TableFmtSuite extends org.scalatest.funsuite.AnyFunSuite {

  test("render aligns columns and includes every row") {
    val out = TableFmt.render("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = out.split("\n")
    assert(lines(0) == "== T ==")
    assert(lines.length == 5)
    assert(lines.drop(1).map(_.length).distinct.size == 1, "all rows same width")
    assert(out.contains("333"))
  }

  test("render tolerates ragged rows") {
    val out = TableFmt.render("T", Seq("a", "b", "c"), Seq(Seq("1")))
    assert(out.contains("1"))
  }

  test("fmtSec formats with two decimals") {
    assert(TableFmt.fmtSec(1.234) == "1.23")
    assert(TableFmt.fmtSec(0.0) == "0.00")
  }

  test("QueryRunners.render pivots cells: first-seen rows, one column per system, - when missing") {
    val cells = Seq(
      Cell(Seq("ep", "Q2"), "B", Timing.TimedOut(1.0)),
      Cell(Seq("em", "Q1"), "A", Timing.Solved(0.5, 3)),
      Cell(Seq("ep", "Q2"), "A", Timing.Solved(1.234, 7)),
      Cell(Seq("em", "Q1"), "C", Timing.OutOfMemory(2.0)))
    val out = QueryRunners.render("T", Seq("ds", "q"), Seq("A", "B"), cells,
      r => Seq(s"a-${r(1)}", 4.0))
    def fields(line: String): Seq[String] = line.split('|').map(_.trim).filter(_.nonEmpty).toSeq
    val lines = out.split("\n")
    assert(lines(0) == "== T ==")
    assert(lines.length == 5, out)
    assert(fields(lines(1)) == Seq("ds", "q", "A (paper)", "B (paper)"))
    assert(fields(lines(3)) == Seq("ep", "Q2", "1.23 (a-Q2)", "TO (4.0)"))
    assert(fields(lines(4)) == Seq("em", "Q1", "0.50 (a-Q1)", "- (4.0)"))
  }
}

class TimingSuite extends SparkSpec {

  test("time measures wall clock and returns the value") {
    val (v, sec) = Timing.time { Thread.sleep(30); 42 }
    assert(v == 42)
    assert(sec >= 0.02)
  }

  test("run classifies successful thunks as Solved with the row count") {
    Timing.run(spark, 30.0)(7L) match {
      case Timing.Solved(sec, rows) => assert(rows == 7L && sec >= 0.0)
      case other => fail(s"unexpected $other")
    }
  }

  test("run classifies SimulatedOOM, also when wrapped") {
    assert(Timing.run(spark, 30.0) { throw new Timing.SimulatedOOM("boom") }
      .isInstanceOf[Timing.OutOfMemory])
    assert(Timing.run(spark, 30.0) {
      throw new RuntimeException("outer", new Timing.SimulatedOOM("inner"))
    }.isInstanceOf[Timing.OutOfMemory])
  }

  test("run classifies QueryTimeout, also when wrapped") {
    assert(Timing.run(spark, 30.0) { throw new Timing.QueryTimeout("slow") }
      .isInstanceOf[Timing.TimedOut])
    assert(Timing.run(spark, 30.0) {
      throw new RuntimeException("outer", new Timing.QueryTimeout("inner"))
    }.isInstanceOf[Timing.TimedOut])
  }

  test("run classifies arbitrary exceptions as Failed") {
    Timing.run(spark, 30.0) { throw new IllegalStateException("nope") } match {
      case Timing.Failed(_, msg) => assert(msg.contains("nope"))
      case other => fail(s"unexpected $other")
    }
  }

  test("cooperative deadline stops a driver-side loop") {
    val out = Timing.run(spark, 0.2) {
      while (true) { Timing.checkDeadline(); Thread.sleep(5) }
      0L
    }
    assert(out.isInstanceOf[Timing.TimedOut])
    assert(out.seconds < 10.0)
  }

  test("overlapping runs keep their own deadlines") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val short = Future(Timing.time(Timing.run(spark, 0.3) {
      while (true) Timing.checkDeadline()
      0L
    }))
    Thread.sleep(100) // the long run sets its deadline second
    val long = Future(Timing.run(spark, 30) { Thread.sleep(1500); Timing.checkDeadline(); 1L })
    val (out, sec) = Await.result(short, 60.seconds)
    assert(out.isInstanceOf[Timing.TimedOut], out)
    assert(sec < 1.5, s"stopped after $sec s")
    assert(Await.result(long, 60.seconds).isInstanceOf[Timing.Solved])
  }

  test("outcome labels") {
    assert(Timing.Solved(1.234, 5).shortLabel == "1.23")
    assert(Timing.TimedOut(1.0).shortLabel == "TO")
    assert(Timing.OutOfMemory(1.0).shortLabel == "OM")
    assert(Timing.Failed(1.0, "x").shortLabel == "FA")
  }
}

class MaterializeDFSuite extends SparkSpec {

  test("checkpoint preserves rows and schema, severing lineage") {
    import spark.implicits._
    val df = Seq((1L, 2L), (3L, 4L)).toDF("src", "dst")
    val cp = MaterializeDF.checkpoint(spark, df)
    assert(cp.schema == df.schema)
    assert(cp.collect().map(_.toSeq).toSet == df.collect().map(_.toSeq).toSet)
    // The RDD lineage is cut too, so later rounds do not ship the history.
    val backing = cp.queryExecution.analyzed.collectFirst { case l: LogicalRDD => l.rdd }.get
    def lineage(r: RDD[_]): Seq[RDD[_]] = r +: r.dependencies.flatMap(d => lineage(d.rdd))
    assert(lineage(backing).exists(_.isCheckpointed))
  }

  test("checkpointed frames union without constraint-rewrite failures") {
    import spark.implicits._
    val a = MaterializeDF.checkpoint(spark, Seq((1L, 2L)).toDF("src", "dst"))
    val b = MaterializeDF.checkpoint(spark, Seq((3L, 4L)).toDF("src", "dst"))
    val u = a.unionByName(b).except(a)
    assert(u.count() == 1)
  }
}
