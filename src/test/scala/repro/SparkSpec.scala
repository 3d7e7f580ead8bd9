package repro

import java.util.concurrent.ConcurrentLinkedQueue
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so the DataFrame paths (NeoLike,
  * the GF catalog) exercise the shuffle path.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Runs `f` and returns its result with the number of Spark jobs it
    * started. Two one-task fence jobs bracket `f`; the listener bus delivers
    * events in order, so once the closing fence is seen every job started
    * before it has been counted.
    */
  def sparkJobsDuring[A](f: => A): (A, Int) = {
    val sc = spark.sparkContext
    val started = new ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        started.add(Option(e.properties)
          .flatMap(p => Option(p.getProperty("repro.fence"))).getOrElse(""))
    }
    def fence(tag: String): Unit = {
      sc.setLocalProperty("repro.fence", tag)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty("repro.fence", null)
    }
    sc.addSparkListener(listener)
    try {
      fence("fence-open")
      val a = f
      fence("fence-close")
      val deadline = System.nanoTime() + 60L * 1000000000L
      while (!started.contains("fence-close") && System.nanoTime() < deadline) Thread.sleep(10)
      val seen = started.asScala.toVector
      assert(seen.contains("fence-close"), "listener bus did not drain")
      (a, seen.indexOf("fence-close") - seen.indexOf("fence-open") - 1)
    } finally sc.removeSparkListener(listener)
  }

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
