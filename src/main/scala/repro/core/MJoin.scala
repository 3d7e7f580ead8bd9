package repro.core

import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.util.Timing

/** Algorithm 5 (MJoin): worst-case-optimal, node-at-a-time enumeration of
  * query occurrences over a RIG.
  *
  * At each search step the local candidate set is the multi-way intersection
  * of the RIG adjacency lists of the already-bound neighbor nodes — no
  * intermediate join results are ever materialized (space O(n · MaxCos)).
  *
  * Counting and `emit`-style enumeration run on the driver. Only
  * [[MJoin.answerDF]] distributes: it partitions the search space on the
  * *first* node of the search order, splitting `cos(q1)` across executor tasks
  * that each backtrack over their seeds against the broadcast RIG.
  */
object MJoin {

  /** Per-step constraint: RIG edge `edge` connects the current order position
    * to the already-bound order position `boundPos`; `forward` means the bound
    * node is the edge's tail (so candidates come from its successor list).
    */
  private final case class Constraint(edge: Int, boundPos: Int, forward: Boolean)

  private def constraints(rig: RIG, order: Array[Int]): Array[Array[Constraint]] = {
    val p = rig.pattern
    val posOf = new Array[Int](p.numNodes)
    order.zipWithIndex.foreach { case (q, i) => posOf(q) = i }
    order.indices.map { i =>
      val q = order(i)
      p.edges.indices.flatMap { ei =>
        val e = p.edges(ei)
        if (e.to == q && posOf(e.from) < i) Some(Constraint(ei, posOf(e.from), forward = true))
        else if (e.from == q && posOf(e.to) < i) Some(Constraint(ei, posOf(e.to), forward = false))
        else None
      }.toArray
    }.toArray
  }

  /** Sorted-array k-way intersection, smallest list first. */
  private def intersectAll(lists: Array[Array[Int]], fallback: Array[Int]): Array[Int] = {
    if (lists.isEmpty) return fallback
    val sorted = lists.sortBy(_.length)
    var acc = sorted(0)
    var i = 1
    while (i < sorted.length && acc.nonEmpty) {
      acc = intersect2(acc, sorted(i))
      i += 1
    }
    acc
  }

  private def intersect2(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new Array[Int](math.min(a.length, b.length))
    var i = 0; var j = 0; var k = 0
    while (i < a.length && j < b.length) {
      val x = a(i); val y = b(j)
      if (x == y) { out(k) = x; k += 1; i += 1; j += 1 }
      else if (x < y) i += 1
      else j += 1
    }
    if (k == out.length) out else java.util.Arrays.copyOf(out, k)
  }

  /** Driver-side enumeration; `emit` receives the occurrence tuple indexed by
    * *query node id* and returns false to stop early. Returns tuples emitted.
    */
  def enumerate(rig: RIG, order: Array[Int], limit: Long = Long.MaxValue)
               (emit: Array[Int] => Boolean): Long =
    if (rig.isEmpty) 0L
    else enumerateSeeds(rig, order, rig.cos(order(0)), limit)(emit)

  /** Enumeration restricted to the given seeds for the first order node
    * (the unit of distribution in [[answerDF]] — each task owns a seed slice).
    */
  def enumerateSeeds(rig: RIG, order: Array[Int], seeds: Array[Int],
                     limit: Long = Long.MaxValue)(emit: Array[Int] => Boolean): Long = {
    val n = order.length
    val cons = constraints(rig, order)
    val t = new Array[Int](rig.pattern.numNodes) // indexed by query node id
    val bound = new Array[Int](n)                // indexed by order position
    var emitted = 0L
    var steps = 0L // the deadline is checked per 1024 search steps, so dead ends count too
    var stop = false

    def step(i: Int): Unit = {
      if (stop) return
      if (i == n) {
        emitted += 1
        if (!emit(t.clone()) || emitted >= limit) stop = true
        return
      }
      steps += 1
      if ((steps & 0x3ff) == 0) Timing.checkDeadline()
      val q = order(i)
      val lists = cons(i).map { c =>
        val boundNode = bound(c.boundPos)
        if (c.forward) rig.successors(c.edge, boundNode)
        else rig.predecessors(c.edge, boundNode)
      }
      val cands = intersectAll(lists, rig.cos(q))
      var j = 0
      while (j < cands.length && !stop) {
        t(q) = cands(j)
        bound(i) = cands(j)
        step(i + 1)
        j += 1
      }
    }

    var s = 0
    while (s < seeds.length && !stop) {
      t(order(0)) = seeds(s)
      bound(0) = seeds(s)
      step(1)
      s += 1
    }
    emitted
  }

  /** Kept for the frozen benchmark only; nothing under `src/` calls it. A no-op-`emit` [[enumerate]]. */
  def count(spark: SparkSession, rig: RIG, order: Array[Int],
            limit: Long = Long.MaxValue): Long =
    enumerate(rig, order, limit)(_ => true)

  /** Answer DataFrame with one column per query node (`q0`..`qn-1`, LongType),
    * enumerated distributedly and capped at `limit` rows.
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
    val rows = sc.parallelize(seeds.toIndexedSeq, parts)
      .mapPartitions { it =>
        val buf = new scala.collection.mutable.ArrayBuffer[Row]()
        enumerateSeeds(bRig.value, order, it.toArray, limit) { tup =>
          buf += Row.fromSeq(tup.toIndexedSeq.map(_.toLong)); true
        }
        buf.iterator
      }
    val df = spark.createDataFrame(rows, schema)
    if (limit == Long.MaxValue) df else df.limit(limit.min(Int.MaxValue).toInt)
  }
}
