package repro.baselines

import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.storage.StorageLevel
import org.roaringbitmap.RoaringBitmap
import repro.core.{RIG, Simulation}
import repro.graph.reach.ReachOps
import repro.pattern.Pattern
import repro.util.Timing

/** The join-based approach JM (paper §7.1): compute the match relation of
  * every query edge, pick an optimized left-deep binary-join plan via dynamic
  * programming, then evaluate the query as a sequence of Spark SQL joins.
  *
  * Edge relations are built on the driver by RIG's row kernel
  * ([[RIG.edgeMatches]]); only their `(u, v)` rows go to Spark for the joins.
  * Every intermediate join result is materialized (persisted and counted) —
  * that is JM's defining weakness. A configurable row budget models the
  * paper's out-of-memory failures: exceeding it raises
  * [[Timing.SimulatedOOM]]. Node pre-filtering [11, 63] is applied to the
  * inputs, as in the paper.
  */
object JM {

  /** ms(e) of pattern edge `edgeIdx` over the candidate sets, built on the
    * driver, with its row count. The DataFrame has columns
    * (colName(from), colName(to)) and starts no Spark job until it is read.
    */
  def edgeRelation(spark: SparkSession, ops: ReachOps, p: Pattern, edgeIdx: Int,
                   cand: Array[RoaringBitmap]): (DataFrame, Long) = {
    val e = p.edges(edgeIdx)
    val sources = cand(e.from).toArray
    val targets = RIG.edgeMatches(ops, e.kind, sources, cand(e.to))
    val rows = sources.indices.collect { case i if targets(i).nonEmpty => (sources(i), targets(i)) }
    val schema = StructType(Seq(
      StructField(p.colName(e.from), LongType, nullable = false),
      StructField(p.colName(e.to), LongType, nullable = false)))
    val sc = spark.sparkContext
    val parts = math.max(1, math.min(sc.defaultParallelism * 2, rows.length / 64 + 1))
    val pairs = sc.parallelize(rows, parts).flatMap { case (u, vs) =>
      vs.iterator.map(v => Row(u.toLong, v.toLong))
    }
    (spark.createDataFrame(pairs, schema), targets.foldLeft(0L)(_ + _.length))
  }

  /** Counts the occurrences of `p`. Throws SimulatedOOM / QueryTimeout. */
  def countMatches(spark: SparkSession, ops: ReachOps, p: Pattern,
                   budgetRows: Long = 20_000_000L): Long = {
    val cand = Simulation.prefilter(ops, p)
    if (cand.exists(_.isEmpty)) return 0L
    // A connected pattern without edges is a single node: count candidates.
    if (p.numEdges == 0) return cand(0).getLongCardinality

    // Edge relations, in pattern-edge order; each is checked against the
    // budget before the next is built and before any Spark job runs.
    val rels = p.edges.indices.map { ei =>
      Timing.checkDeadline()
      val (df, n) = edgeRelation(spark, ops, p, ei, cand)
      if (n > budgetRows)
        throw new Timing.SimulatedOOM(s"edge relation $ei has $n rows > budget $budgetRows")
      (df, n)
    }.toVector
    if (rels.exists(_._2 == 0L)) return 0L

    val order = planLeftDeep(p, rels.map(_._2))
    var acc: DataFrame = rels(order.head)._1
    val persisted = scala.collection.mutable.ArrayBuffer.empty[DataFrame]
    try {
      order.tail.foreach { ei =>
        Timing.checkDeadline()
        val right = rels(ei)._1
        val common = acc.columns.toSet.intersect(right.columns.toSet).toSeq
        acc = if (common.nonEmpty) acc.join(right, common) else acc.crossJoin(right)
        acc = acc.persist(StorageLevel.MEMORY_AND_DISK)
        persisted += acc
        val n = acc.count() // JM materializes every intermediate
        if (n > budgetRows)
          throw new Timing.SimulatedOOM(s"intermediate result has $n rows > budget $budgetRows")
      }
      acc.count()
    } finally persisted.foreach(_.unpersist())
  }

  /** Left-deep plan over query edges: exact subset DP for <=16 edges
    * (minimizing the sum of estimated intermediate cardinalities, the
    * paper's exhaustive left-deep enumeration), greedy smallest-first
    * otherwise. Only connected extensions are allowed.
    */
  def planLeftDeep(p: Pattern, sizes: Vector[Long]): List[Int] = {
    val m = p.numEdges
    require(m > 0, "pattern must have edges")
    def nodesOf(ei: Int): Set[Int] = Set(p.edges(ei).from, p.edges(ei).to)
    def connected(ei: Int, nodes: Set[Int]): Boolean = nodesOf(ei).exists(nodes)
    // Selectivity of joining edge relation ei into a partial result that
    // already binds `bound` nodes: independence assumption over shared nodes.
    val nodeCard = {
      val card = scala.collection.mutable.Map.empty[Int, Double].withDefaultValue(1.0)
      p.edges.indices.foreach { ei =>
        val s = math.max(1.0, math.sqrt(sizes(ei).toDouble))
        val e = p.edges(ei)
        card(e.from) = math.max(card(e.from), s)
        card(e.to) = math.max(card(e.to), s)
      }
      card
    }
    def joinEstimate(current: Double, bound: Set[Int], ei: Int): Double = {
      val shared = nodesOf(ei).intersect(bound)
      val denom = shared.foldLeft(1.0)((acc, q) => acc * nodeCard(q))
      math.max(1.0, current * sizes(ei).toDouble / math.max(1.0, denom))
    }

    if (m <= 16) {
      val best = new java.util.HashMap[Integer, (Double, Double, Set[Int], List[Int])]()
      // state: mask -> (total cost, current cardinality, bound nodes, reversed order)
      (0 until m).foreach(ei =>
        best.put(1 << ei, (sizes(ei).toDouble, sizes(ei).toDouble, nodesOf(ei), List(ei))))
      for (sz <- 1 until m) {
        val masks = best.keySet().toArray.map(_.asInstanceOf[Integer].intValue)
          .filter(Integer.bitCount(_) == sz)
        masks.foreach { mask =>
          val (cost, card, bound, rev) = best.get(mask)
          (0 until m).foreach { ei =>
            if ((mask & (1 << ei)) == 0 && connected(ei, bound)) {
              val newCard = joinEstimate(card, bound, ei)
              val newCost = cost + newCard
              val nm = mask | (1 << ei)
              val cur = best.get(nm)
              if (cur == null || newCost < cur._1)
                best.put(nm, (newCost, newCard, bound ++ nodesOf(ei), ei :: rev))
            }
          }
        }
      }
      best.get((1 << m) - 1)._4.reverse
    } else {
      // Greedy: smallest relation first, then smallest connected relation.
      var remaining = (0 until m).toSet
      val start = remaining.minBy(sizes(_))
      var bound = nodesOf(start)
      var order = List(start)
      remaining -= start
      while (remaining.nonEmpty) {
        val next = remaining.filter(connected(_, bound)).minBy(sizes(_))
        order = next :: order
        bound ++= nodesOf(next)
        remaining -= next
      }
      order.reverse
    }
  }
}
