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
  * The search hands out the last depth whole: one step binds every earlier
  * depth and leaves the last depth's candidates in its buffer. Three drivers
  * share it: [[enumerate]] and [[answerDF]] bind each candidate in turn, and
  * [[count]] adds the block's length without binding any.
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
    * binds [[tuple]] (indexed by query node id) in place at depths
    * `0 until last` and fills the last depth, whose candidates are
    * `lastCands(0 until lastLen)`; for a single-node pattern depth 0 is the
    * last. A depth starts from its shortest RIG row, used as is when alone,
    * and intersects the others into its buffer of |cos(order(i))| slots (each
    * row into `order(i)` lies in cos(order(i))), the first time from the row
    * and then in place.
    */
  private final class Search(rig: RIG, order: Array[Int], seeds: Array[Int], deadline: Long) {
    val tuple = new Array[Int](rig.pattern.numNodes)
    private val n = order.length
    private val last = n - 1
    private val cons = constraints(rig, order)
    private val rows = cons.map(c => new Array[Array[Int]](c.length))
    private val buf = Array.tabulate(n)(i =>
      new Array[Int](if (cons(i).length > 1) rig.cos(order(i)).length else 0))
    private val cands = new Array[Array[Int]](n)
    private val len = new Array[Int](n)
    private val pos = new Array[Int](n)
    private var depth = 0
    private var steps = 0L // binds, backtracks and the drivers' last-depth binds
    private var nextCheck = 1024L // the deadline is checked once `steps` reaches it
    cands(0) = seeds; len(0) = seeds.length

    def lastCands: Array[Int] = cands(last)
    def lastLen: Int = len(last)

    /** Charges one search step; a driver calls it per last-depth bind. */
    def step(): Unit = {
      steps += 1
      if (steps >= nextCheck) { Timing.checkDeadline(deadline); nextCheck = steps + 1024 }
    }

    /** Binds the depths before the last and fills the last depth with at
      * least one candidate; false once the search is exhausted.
      */
    def advance(): Boolean = {
      while (depth >= 0) {
        step()
        if (depth == last) { depth -= 1; if (len(last) > 0) return true }
        else if (pos(depth) == len(depth)) depth -= 1
        else {
          tuple(order(depth)) = cands(depth)(pos(depth))
          pos(depth) += 1
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
    val search = new Search(rig, order, rig.cos(order(0)), Timing.deadlineMillis)
    val t = search.tuple; val q = order.last
    var emitted = 0L
    while (emitted < limit && search.advance()) {
      val cs = search.lastCands; val n = (limit - emitted).min(search.lastLen).toInt
      var i = 0
      while (i < n) {
        search.step()
        t(q) = cs(i); i += 1; emitted += 1
        if (!emit(t)) return emitted
      }
    }
    emitted
  }

  /** Driver-side count of occurrences, at most `limit`: adds each last-depth
    * block's length and never binds its tuples.
    */
  def count(rig: RIG, order: Array[Int], limit: Long = Long.MaxValue): Long = {
    if (rig.isEmpty) return 0L
    val search = new Search(rig, order, rig.cos(order(0)), Timing.deadlineMillis)
    var counted = 0L
    while (counted < limit && search.advance()) counted += (limit - counted).min(search.lastLen)
    counted
  }

  /** Kept for the frozen benchmark only; nothing under `src/` calls it. Forwards to [[count]]. */
  def count(spark: SparkSession, rig: RIG, order: Array[Int], limit: Long): Long =
    count(rig, order, limit)

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
    val deadline = Timing.deadlineMillis // executor threads do not see the caller's
    val rows = sc.parallelize(seeds.toIndexedSeq, parts)
      .mapPartitions { it =>
        val search = new Search(bRig.value, order, it.toArray, deadline)
        val t = search.tuple; val q = order.last
        new Iterator[Row] {
          private var cs = Array.emptyIntArray
          private var n = 0
          private var i = 0
          private var left = cap
          def hasNext: Boolean = left > 0 && (i < n || search.advance() && {
            cs = search.lastCands; n = search.lastLen; i = 0; true
          })
          def next(): Row = {
            if (!hasNext) throw new NoSuchElementException("search exhausted")
            search.step()
            t(q) = cs(i); i += 1; left -= 1
            Row.fromSeq(t.toIndexedSeq.map(_.toLong))
          }
        }
      }
    val df = spark.createDataFrame(rows, schema)
    if (limit == Long.MaxValue) df else df.limit(cap)
  }
}
