package repro.baselines

import java.util.Arrays
import scala.collection.mutable.ArrayBuffer
import repro.core.{RIG, Simulation}
import repro.graph.reach.ReachOps
import repro.pattern.Pattern
import repro.util.Timing

/** The join-based approach JM (paper §7.1): compute the match relation of
  * every query edge, pick an optimized left-deep binary-join plan via dynamic
  * programming, then evaluate the query as a sequence of binary joins.
  *
  * As in the paper, JM runs in memory on the driver. Edge relations are the
  * rows of RIG's row kernel ([[RIG.edgeMatches]]), and every join step
  * materializes its whole result — that is JM's defining weakness. A
  * configurable row budget models the paper's out-of-memory failures:
  * exceeding it raises [[Timing.SimulatedOOM]]. Node pre-filtering [11, 63]
  * is applied to the inputs, as in the paper.
  */
object JM {

  /** Partial matches joined between two deadline checks. */
  private val DeadlineStride = 1024

  /** Counts the occurrences of `p`. Throws SimulatedOOM / QueryTimeout. */
  def countMatches(ops: ReachOps, p: Pattern, budgetRows: Long = 20_000_000L): Long = {
    val cand = Simulation.prefilter(ops, p)
    if (cand.exists(_.isEmpty)) return 0L
    // A connected pattern without edges is a single node: count candidates.
    if (p.numEdges == 0) return cand(0).getLongCardinality
    val nodes = cand.map(_.toArray)

    // Forward edge relations in pattern-edge order, each checked against the
    // budget before the next is built.
    val fwd = p.edges.indices.map { ei =>
      val e = p.edges(ei)
      val rows = RIG.edgeMatches(ops, e.kind, nodes(e.from), cand(e.to))
      val n = rows.foldLeft(0L)(_ + _.length)
      if (n > budgetRows)
        throw new Timing.SimulatedOOM(s"edge relation $ei has $n rows > budget $budgetRows")
      (rows, n)
    }
    if (fwd.exists(_._2 == 0L)) return 0L
    val order = planLeftDeep(p, fwd.map(_._2).toVector)

    // Partial matches indexed by query node (-1 = unbound), seeded with the
    // first edge's tail so that every step of the connected plan is bound.
    val first = p.edges(order.head).from
    var acc = ArrayBuffer.from(
      nodes(first).map(v => Array.tabulate(p.numNodes)(q => if (q == first) v else -1)))
    var bound = Set(first)
    order.foreach { ei =>
      val e = p.edges(ei)
      // Rows indexed by the candidates of the bound end `have`; they bind
      // `add`, or filter when both ends are bound (add = -1).
      val (have, add, rows) =
        if (!bound(e.to)) (e.from, e.to, fwd(ei)._1)
        else if (!bound(e.from))
          (e.to, e.from, RIG.edgeMatches(ops, e.kind, nodes(e.to), cand(e.from), forward = false))
        else (e.from, -1, fwd(ei)._1)
      val out = ArrayBuffer.empty[Array[Int]]
      acc.indices.foreach { i =>
        if (i % DeadlineStride == 0) Timing.checkDeadline()
        val t = acc(i)
        val row = rows(Arrays.binarySearch(nodes(have), t(have)))
        if (add < 0) { if (Arrays.binarySearch(row, t(e.to)) >= 0) out += t }
        else row.foreach { w =>
          val u = t.clone()
          u(add) = w
          out += u
        }
        if (out.length > budgetRows)
          throw new Timing.SimulatedOOM(s"intermediate result has ${out.length} rows > budget $budgetRows")
      }
      acc = out
      bound ++= Set(e.from, e.to)
    }
    acc.length
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
