package repro.util

import org.apache.spark.sql.SparkSession

/** Per-query execution harness: wall-clock timeout + simulated-OOM budget.
  *
  * The paper stops queries at 10 minutes and records JM failures that are
  * out-of-memory errors (intermediate-result explosions on a 16 GB JVM). We
  * scale both: the timeout is configurable per bench, and "out of memory" is
  * modelled as an intermediate-result row budget so a run fails for the same
  * *reason* the paper's does without actually taking down the JVM.
  *
  * Timeouts are cooperative (hot loops call [[checkDeadline]] against their own
  * query's deadline) and preemptive for Spark jobs (the job group is cancelled).
  */
object Timing {

  final class SimulatedOOM(msg: String) extends RuntimeException(msg)
  final class QueryTimeout(msg: String) extends RuntimeException(msg)

  sealed trait Outcome {
    def seconds: Double
    def shortLabel: String
  }
  final case class Solved(seconds: Double, rows: Long) extends Outcome {
    def shortLabel: String = f"$seconds%.2f"
  }
  final case class TimedOut(seconds: Double) extends Outcome { def shortLabel = "TO" }
  final case class OutOfMemory(seconds: Double) extends Outcome { def shortLabel = "OM" }
  final case class Failed(seconds: Double, msg: String) extends Outcome { def shortLabel = "FA" }

  // Epoch-millisecond deadline of this thread's query: set by run's runner
  // thread and never reset, so a runner left behind stops at its next check.
  private val deadline = ThreadLocal.withInitial[Long](() => Long.MaxValue)

  /** This thread's query deadline, for work on other threads or JVMs to capture. */
  def deadlineMillis: Long = deadline.get

  /** Cooperative timeout check — call from driver-side hot loops. */
  def checkDeadline(): Unit = checkDeadline(deadline.get)

  /** Checks a deadline captured with [[deadlineMillis]]. */
  def checkDeadline(until: Long): Unit =
    if (System.currentTimeMillis() > until)
      throw new QueryTimeout("query exceeded its time budget")

  /** Runs `thunk` (which returns a row count) under a time budget. */
  def run(spark: SparkSession, budgetSec: Double)(thunk: => Long): Outcome = {
    val group = s"timed-${System.nanoTime()}"
    val start = System.nanoTime()
    def elapsed: Double = (System.nanoTime() - start) / 1e9
    val until = System.currentTimeMillis() + (budgetSec * 1000).toLong
    @volatile var outcome: Outcome = null
    val runner = new Thread(() => {
      outcome =
        try {
          deadline.set(until)
          spark.sparkContext.setJobGroup(group, group, interruptOnCancel = true)
          val rows = thunk
          Solved(elapsed, rows)
        } catch {
          // Exceptions from executor tasks arrive wrapped in SparkException;
          // classify on the whole cause chain.
          case e: Throwable if inChain(e, classOf[QueryTimeout]) => TimedOut(elapsed)
          case e: Throwable if inChain(e, classOf[SimulatedOOM]) => OutOfMemory(elapsed)
          case e: Throwable if isCancellation(e) => TimedOut(elapsed)
          case e: Throwable => Failed(elapsed, e.toString)
        } finally spark.sparkContext.clearJobGroup()
    }, "timed-query-runner")
    runner.setDaemon(true)
    runner.start()
    runner.join((budgetSec * 1000).toLong + 2000)
    if (outcome == null) {
      // Preempt any running Spark job; the cooperative deadline stops the rest.
      spark.sparkContext.cancelJobGroup(group)
      runner.join(30000)
      if (outcome == null) TimedOut(elapsed) else outcome
    } else outcome
  }

  private def inChain(e: Throwable, cls: Class[_ <: Throwable]): Boolean = {
    var t = e
    while (t != null) {
      if (cls.isInstance(t)) return true
      // Spark serializes task failures into the message of the driver-side
      // exception when the original class is not propagated.
      if (Option(t.getMessage).exists(_.contains(cls.getSimpleName))) return true
      t = t.getCause
    }
    false
  }

  private def isCancellation(e: Throwable): Boolean = {
    var t = e
    while (t != null) {
      val m = Option(t.getMessage).getOrElse("")
      if (t.isInstanceOf[InterruptedException] || m.contains("cancelled") ||
          m.contains("canceled") || m.contains("killed"))
        return true
      t = t.getCause
    }
    false
  }

  /** Simple wall-clock measurement in seconds. */
  def time[A](thunk: => A): (A, Double) = {
    val start = System.nanoTime()
    val a = thunk
    (a, (System.nanoTime() - start) / 1e9)
  }
}
