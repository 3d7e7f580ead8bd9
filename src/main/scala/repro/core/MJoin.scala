package repro.core

import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.util.Timing

/** Algorithm 5 (MJoin): worst-case-optimal, node-at-a-time enumeration of
  * query occurrences over a RIG.
  *
  * At each search step the local candidate set is the multi-way intersection
  * of the RIG adjacency lists of the already-bound neighbor nodes — no
  * intermediate join results are ever materialized. One explicit-stack search
  * allocates nothing per step, so space is O(n · MaxCos) on the driver and in
  * every [[answerDF]] task alike.
  *
  * Counting and `emit`-style enumeration run on the driver. Only
  * [[MJoin.answerDF]] distributes: it partitions the search space on the
  * *first* node of the search order, splitting `cos(q1)` across executor tasks
  * that each stream rows from a search over their seeds against the broadcast RIG.
  */
object MJoin {

  /** Per-step constraint: RIG edge `edge` connects the current order position
    * to the already-bound query node `bound`; `forward` means the bound node
    * is the edge's tail (so candidates come from its successor list).
    */
  private final case class Constraint(edge: Int, bound: Int, forward: Boolean)

  private def constraints(rig: RIG, order: Array[Int]): Array[Array[Constraint]] = {
    val p = rig.pattern
    val posOf = new Array[Int](p.numNodes)
    order.zipWithIndex.foreach { case (q, i) => posOf(q) = i }
    order.indices.map { i =>
      val q = order(i)
      p.edges.indices.flatMap { ei =>
        val e = p.edges(ei)
        if (e.to == q && posOf(e.from) < i) Some(Constraint(ei, e.from, forward = true))
        else if (e.from == q && posOf(e.to) < i) Some(Constraint(ei, e.to, forward = false))
        else None
      }.toArray
    }.toArray
  }

  /** Backtracking search over the seeds of the first order node; `order` is
    * connected, so every later depth has a bound neighbour. Each [[advance]]
    * binds [[tuple]] (indexed by query node id) in place to the next
    * occurrence. A depth starts from its shortest RIG row, used as is when
    * alone, and intersects the others into its buffer of |cos(order(i))| slots
    * (each row into `order(i)` lies in cos(order(i))), the first time from the
    * row and then in place.
    */
  private final class Search(rig: RIG, order: Array[Int], seeds: Array[Int]) {
    val tuple = new Array[Int](rig.pattern.numNodes)
    private val n = order.length
    private val cons = constraints(rig, order)
    private val rows = cons.map(c => new Array[Array[Int]](c.length))
    private val buf = Array.tabulate(n)(i =>
      new Array[Int](if (cons(i).length > 1) rig.cos(order(i)).length else 0))
    private val cands = new Array[Array[Int]](n)
    private val len = new Array[Int](n)
    private val pos = new Array[Int](n)
    private var depth = 0
    private var steps = 0L // binds and backtracks; the deadline is checked per 1024
    cands(0) = seeds; len(0) = seeds.length

    /** Binds the next occurrence into `tuple`; false once the search is exhausted. */
    def advance(): Boolean = {
      while (depth >= 0) {
        steps += 1
        if ((steps & 0x3ff) == 0) Timing.checkDeadline()
        if (pos(depth) == len(depth)) depth -= 1
        else {
          tuple(order(depth)) = cands(depth)(pos(depth))
          pos(depth) += 1
          if (depth == n - 1) return true
          depth += 1
          fill(depth)
        }
      }
      false
    }

    private def fill(i: Int): Unit = {
      val cs = cons(i); val rs = rows(i)
      var shortest = 0
      var k = 0
      while (k < cs.length) {
        val c = cs(k)
        rs(k) = if (c.forward) rig.successors(c.edge, tuple(c.bound))
                else rig.predecessors(c.edge, tuple(c.bound))
        if (rs(k).length < rs(shortest).length) shortest = k
        k += 1
      }
      cands(i) = rs(shortest); len(i) = rs(shortest).length; pos(i) = 0
      k = 0
      while (k < cs.length && len(i) > 0) {
        if (k != shortest) { len(i) = intersect(cands(i), len(i), rs(k), buf(i)); cands(i) = buf(i) }
        k += 1
      }
    }
  }

  /** Writes `a(0 until na) ∩ b` (both sorted) to the front of `out`, which may
    * be `a`, and returns its size.
    */
  private def intersect(a: Array[Int], na: Int, b: Array[Int], out: Array[Int]): Int = {
    var i = 0; var j = 0; var k = 0
    while (i < na && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    k
  }

  /** Driver-side enumeration; `emit` receives the occurrence tuple indexed by
    * *query node id*, valid only during the call (copy it to keep it), and
    * returns false to stop early. Returns tuples emitted, at most `limit`.
    */
  def enumerate(rig: RIG, order: Array[Int], limit: Long = Long.MaxValue)
               (emit: Array[Int] => Boolean): Long = {
    if (rig.isEmpty) return 0L
    val search = new Search(rig, order, rig.cos(order(0)))
    var emitted = 0L
    while (emitted < limit && search.advance()) {
      emitted += 1
      if (!emit(search.tuple)) return emitted
    }
    emitted
  }

  /** Kept for the frozen benchmark only; nothing under `src/` calls it. A no-op-`emit` [[enumerate]]. */
  def count(spark: SparkSession, rig: RIG, order: Array[Int],
            limit: Long = Long.MaxValue): Long =
    enumerate(rig, order, limit)(_ => true)

  /** Answer DataFrame with one column per query node (`q0`..`qn-1`, LongType),
    * enumerated distributedly and capped at `limit` rows. Each task streams
    * its rows straight from the search, at most `limit` of them.
    */
  def answerDF(spark: SparkSession, rig: RIG, order: Array[Int],
               limit: Long = Long.MaxValue): DataFrame = {
    val p = rig.pattern
    val schema = StructType((0 until p.numNodes).map(q => StructField(p.colName(q), LongType, nullable = false)))
    if (rig.isEmpty) return spark.createDataFrame(spark.sparkContext.emptyRDD[Row], schema)
    val sc = spark.sparkContext
    val bRig = sc.broadcast(rig)
    val seeds = rig.cos(order(0))
    val parts = math.max(1, math.min(sc.defaultParallelism * 4, seeds.length / 16))
    val cap = limit.min(Int.MaxValue).toInt
    val rows = sc.parallelize(seeds.toIndexedSeq, parts)
      .mapPartitions { it =>
        val search = new Search(bRig.value, order, it.toArray)
        Iterator.continually(search).takeWhile(_.advance()).take(cap)
          .map(s => Row.fromSeq(s.tuple.toIndexedSeq.map(_.toLong)))
      }
    val df = spark.createDataFrame(rows, schema)
    if (limit == Long.MaxValue) df else df.limit(cap)
  }
}
