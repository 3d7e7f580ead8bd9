package repro.graph.reach

import java.util.concurrent.atomic.AtomicReferenceArray

import org.roaringbitmap.{RoaringBitmap, RoaringBitmapWriter}
import repro.graph.{Condensation, Graph}

/** Reachability and adjacency primitives over a data graph, driver-side only
  * (nothing ships them to executors). There are three:
  *
  *  - [[semijoin]], the set semijoin `keep ⋉ other` across one pattern edge:
  *    the paper's *batch checking of direct connectivity constraints* (§4.5,
  *    the `bitBat` method) and the edge-to-path conditions of double
  *    simulation. One call prunes a whole candidate set.
  *  - [[labelSemijoin]], a lazy, query-independent memo of `semijoin(V, L_l)`
  *    for each label inverted list `L_l`: the nodes with an edge or path to
  *    (or from) some node labelled `l`. Double simulation ANDs it into a
  *    candidate set before streaming rows, so only nodes already known to
  *    have a labelled neighbour pay for a row scan.
  *  - [[TargetedReach]], the per-node rows of reachable targets that RIG
  *    expansion reads ([[repro.core.RIG.edgeMatches]]).
  *
  * Reachability semantics follow Def. 2.2: `u ≺ v` iff there is a path with at
  * least one edge from u to v (so `u ≺ u` only through a cycle). All path
  * reasoning happens on the SCC condensation whose component ids are
  * topologically ordered (see [[repro.graph.Condensation]]). Pairwise
  * `u ≺ v` checks are not here: they go through the BFL index
  * ([[BFL.reaches]]).
  */
final class ReachOps(val g: Graph, val cond: Condensation) {

  // Slot 4 * label + 2 * path + forward of labelSemijoin; null until filled.
  private val labelMemo = new AtomicReferenceArray[RoaringBitmap](4 * g.numLabels)

  /** The members of `keep` with an edge (`!path`) or a >=1-edge path (`path`)
    * to some node of `other` (`forward`), or from one (`!forward`), as a new
    * bitmap. A direct edge streams each member's CSR row through `other` and
    * stops at the first hit. A path marks the strict closure of `other` once
    * per condensation component and keeps the members of marked components.
    */
  def semijoin(keep: RoaringBitmap, other: RoaringBitmap, path: Boolean,
               forward: Boolean): RoaringBitmap = {
    val out = RoaringBitmapWriter.writer().get()
    val it = keep.getIntIterator
    if (!path) {
      val (off, adj) = if (forward) (g.fwdOff, g.fwdAdj) else (g.bwdOff, g.bwdAdj)
      while (it.hasNext) {
        val u = it.next()
        var i = off(u)
        while (i < off(u + 1) && !other.contains(adj(i))) i += 1
        if (i < off(u + 1)) out.add(u)
      }
    } else {
      val reached = closureOf(other, forward = !forward)
      while (it.hasNext) {
        val u = it.next()
        if (reached(cond.comp(u))) out.add(u)
      }
    }
    out.get()
  }

  /** `semijoin(all nodes, g.invertedBitmap(label), path, forward)`, built on
    * first use (O(|V| + |E|)) and then shared by every query: since each
    * candidate set of a node labelled `label` lies inside that label's
    * inverted list, this is a superset of any semijoin against one. The
    * returned bitmap is shared: do not mutate it. Thread-safe: a slot is
    * filled outside any lock and published by compare-and-set, so two
    * threads may both build it, and both then return the first one stored.
    */
  def labelSemijoin(label: Int, path: Boolean, forward: Boolean): RoaringBitmap = {
    val slot = 4 * label + (if (path) 2 else 0) + (if (forward) 1 else 0)
    val memo = labelMemo.get(slot)
    if (memo != null) return memo
    val all = RoaringBitmap.bitmapOfRange(0L, g.numNodes.toLong)
    labelMemo.compareAndSet(slot, null, semijoin(all, g.invertedBitmap(label), path, forward))
    labelMemo.get(slot)
  }

  /** Marks the components of the strict closure of `s`: those reached from
    * (`forward`) or reaching (`!forward`) a component of `s` by >=1 DAG edge,
    * and the cyclic components that hold a node of `s` (in-SCC paths have
    * >=1 edge).
    */
  private def closureOf(s: RoaringBitmap, forward: Boolean): Array[Boolean] = {
    val c = cond
    val inSet = new Array[Boolean](c.numComps)   // comps containing a node of s
    val reached = new Array[Boolean](c.numComps) // comps in the strict closure
    // Capacity: every comp can be pushed once as a seed and once when first
    // reached by the BFS, so 2 * numComps bounds the stack.
    val stack = new Array[Int](2 * c.numComps)
    var stackTop = 0
    val it = s.getIntIterator
    while (it.hasNext) {
      val comp = c.comp(it.next())
      if (!inSet(comp)) {
        inSet(comp) = true
        if (c.isCyclic(comp)) reached(comp) = true
        stack(stackTop) = comp; stackTop += 1
      }
    }
    while (stackTop > 0) {
      stackTop -= 1
      val comp = stack(stackTop)
      val next = if (forward) c.dagChildren(comp) else c.dagParents(comp)
      next.foreach { nc =>
        if (!reached(nc)) {
          reached(nc) = true
          stack(stackTop) = nc; stackTop += 1
        }
      }
    }
    reached
  }

  /** For a fixed target node set, answers "which targets does u reach?"
    * (`forward`) or "which targets reach u?" (`!forward`), by >=1-edge paths:
    * the reachability half of [[repro.core.RIG.edgeMatches]]. One DFS per
    * component over the condensation DAG, pruned to the region of components
    * that reach (backward: are reached from) a target component. Its whole
    * row, a cyclic component's own targets included, is memoised, so all
    * members of an SCC share one read-only array. The DFS reuses region-sized
    * scratch arrays and allocates only the row. Not thread-safe; `targets`
    * must be distinct.
    */
  final class TargetedReach(targets: Array[Int], forward: Boolean) {
    private val c = cond
    private val (walkOff, walkAdj, backOff, backAdj) =
      if (forward) (c.dagOff, c.dagAdj, c.dagBwdOff, c.dagBwdAdj)
      else (c.dagBwdOff, c.dagBwdAdj, c.dagOff, c.dagAdj)
    // slot(comp) = 1 + the comp's region index, 0 outside the region. The
    // region grows against the walk from the target comps, which come first.
    private val slot = new Array[Int](c.numComps)
    private val (regionSize, numTargetComps) = {
      val queue = new Array[Int](c.numComps)
      var n = 0
      def add(comp: Int): Unit =
        if (slot(comp) == 0) { queue(n) = comp; n += 1; slot(comp) = n }
      targets.foreach(t => add(c.comp(t)))
      val numTargetComps = n
      var i = 0
      while (i < n) {
        var j = backOff(queue(i))
        while (j < backOff(queue(i) + 1)) { add(backAdj(j)); j += 1 }
        i += 1
      }
      (n, numTargetComps)
    }
    // Targets grouped by region index: group r is tgt[tgtOff(r), tgtOff(r + 1)).
    private val tgtOff = new Array[Int](numTargetComps + 1)
    private val tgt = new Array[Int](targets.length)
    targets.foreach(t => tgtOff(slot(c.comp(t)) - 1) += 1)
    (1 to numTargetComps).foreach(r => tgtOff(r) += tgtOff(r - 1))
    targets.reverseIterator.foreach { t =>
      val r = slot(c.comp(t)) - 1
      tgtOff(r) -= 1; tgt(tgtOff(r)) = t
    }

    private val memo = new Array[Array[Int]](regionSize)
    // DFS scratch, reused across calls. Each memo miss takes a fresh epoch;
    // there are at most regionSize of them, so it never wraps.
    private val stamp = new Array[Int](regionSize)
    private var epoch = 0
    private val stack = new Array[Int](regionSize)
    private val hits = new Array[Int](numTargetComps)

    /** Sorted targets that `u` reaches (forward) or that reach `u`
      * (backward). Shared by the members of an SCC: do not mutate.
      */
    def from(u: Int): Array[Int] = {
      val cu = c.comp(u)
      val r = slot(cu) - 1
      if (r < 0) return Array.emptyIntArray
      if (memo(r) != null) return memo(r)
      epoch += 1
      stamp(r) = epoch
      // In-SCC paths have >=1 edge, so a cyclic comp reaches its own targets.
      var nHits = if (r < numTargetComps && c.isCyclic(cu)) { hits(0) = r; 1 } else 0
      stack(0) = cu
      var top = 1
      while (top > 0) {
        top -= 1
        val cc = stack(top)
        var j = walkOff(cc)
        while (j < walkOff(cc + 1)) {
          val k = walkAdj(j)
          val rk = slot(k) - 1
          if (rk >= 0 && stamp(rk) != epoch) {
            stamp(rk) = epoch
            if (rk < numTargetComps) { hits(nHits) = rk; nHits += 1 }
            stack(top) = k; top += 1
          }
          j += 1
        }
      }
      var size = 0
      var h = 0
      while (h < nHits) { size += tgtOff(hits(h) + 1) - tgtOff(hits(h)); h += 1 }
      val out = if (size == 0) Array.emptyIntArray else new Array[Int](size)
      var pos = 0
      h = 0
      while (h < nHits) {
        val rk = hits(h)
        val len = tgtOff(rk + 1) - tgtOff(rk)
        System.arraycopy(tgt, tgtOff(rk), out, pos, len)
        pos += len; h += 1
      }
      java.util.Arrays.sort(out)
      memo(r) = out
      out
    }
  }

  def targeted(targets: Array[Int], forward: Boolean = true): TargetedReach =
    new TargetedReach(targets, forward)
}

object ReachOps {
  def apply(g: Graph): ReachOps = new ReachOps(g, Condensation(g))
}
