package repro.graph.reach

import org.roaringbitmap.RoaringBitmap
import repro.graph.{Condensation, Graph}

/** Batch reachability/adjacency set operations over a data graph.
  *
  * These are the primitives behind the paper's *batch checking of direct
  * connectivity constraints* (§4.5, the `bitBat` method) and the edge-to-path
  * conditions of double simulation: one call prunes a whole candidate set via
  * bitmap operations instead of per-node binary searches.
  *
  * Reachability semantics follow Def. 2.2: `u ≺ v` iff there is a path with at
  * least one edge from u to v (so `u ≺ u` only through a cycle). All path
  * reasoning happens on the SCC condensation whose component ids are
  * topologically ordered (see [[repro.graph.Condensation]]). Pairwise
  * `u ≺ v` checks are not here: they go through the BFL index
  * ([[BFL.reaches]]). Driver-side only: nothing ships it to executors.
  */
final class ReachOps(val g: Graph, val cond: Condensation) {

  /** Nodes with an edge *into* some node of `s` (one step back). */
  def predsOf(s: RoaringBitmap): RoaringBitmap = {
    val out = new RoaringBitmap()
    val it = s.getIntIterator
    while (it.hasNext) {
      val v = it.next()
      var i = g.bwdOff(v)
      while (i < g.bwdOff(v + 1)) { out.add(g.bwdAdj(i)); i += 1 }
    }
    out
  }

  /** Nodes with an edge *from* some node of `s` (one step forward). */
  def succsOf(s: RoaringBitmap): RoaringBitmap = {
    val out = new RoaringBitmap()
    val it = s.getIntIterator
    while (it.hasNext) {
      val v = it.next()
      var i = g.fwdOff(v)
      while (i < g.fwdOff(v + 1)) { out.add(g.fwdAdj(i)); i += 1 }
    }
    out
  }

  /** All u such that u ≺ v for some v in `s` (multi-source, component level). */
  def ancestorsOf(s: RoaringBitmap): RoaringBitmap =
    closureOf(s, forward = false)

  /** All v such that u ≺ v for some u in `s`. */
  def descendantsOf(s: RoaringBitmap): RoaringBitmap =
    closureOf(s, forward = true)

  private def closureOf(s: RoaringBitmap, forward: Boolean): RoaringBitmap = {
    val c = cond
    val inSet = new Array[Boolean](c.numComps)   // comps containing a node of s
    val visited = new Array[Boolean](c.numComps) // comps in the strict closure
    val it = s.getIntIterator
    var stackTop = 0
    // Capacity: every comp can be pushed once as a seed and once when first
    // visited by the BFS, so 2 * numComps bounds the stack.
    val stack = new Array[Int](2 * c.numComps)
    while (it.hasNext) {
      val comp = c.comp(it.next())
      if (!inSet(comp)) { inSet(comp) = true; stack(stackTop) = comp; stackTop += 1 }
    }
    // BFS over the condensation DAG starting from the comps of s; a comp enters
    // the result only when reached via >=1 DAG edge, or when it is cyclic and
    // itself contains a node of s (in-SCC paths have >=1 edge).
    val out = new RoaringBitmap()
    def addMembers(comp: Int): Unit = {
      var i = c.memberOff(comp)
      while (i < c.memberOff(comp + 1)) { out.add(c.memberAdj(i)); i += 1 }
    }
    var i = 0
    val seeds = stackTop
    while (i < seeds) {
      val comp = stack(i)
      if (c.isCyclic(comp)) addMembers(comp)
      i += 1
    }
    while (stackTop > 0) {
      stackTop -= 1
      val comp = stack(stackTop)
      val next = if (forward) c.dagChildren(comp) else c.dagParents(comp)
      next.foreach { nc =>
        if (!visited(nc)) {
          visited(nc) = true
          addMembers(nc)
          stack(stackTop) = nc; stackTop += 1
        }
      }
    }
    out
  }

  /** For a fixed target node set, answers "which targets does node u reach?"
    * quickly and repeatedly — the reachability half of [[repro.core.RIG.edgeMatches]],
    * behind RIG expansion and JM's edge relations. Results are cached per
    * component, so expanding many sources inside the same SCC costs one DFS.
    */
  final class TargetedReach(targets: Array[Int]) {
    private val c = cond
    // comp -> sorted member targets
    private val targetsByComp: java.util.HashMap[Integer, Array[Int]] = {
      val m = new java.util.HashMap[Integer, Array[Int]]()
      targets.groupBy(c.comp(_)).foreach { case (k, vs) =>
        java.util.Arrays.sort(vs); m.put(k, vs)
      }
      m
    }
    private val targetComps: Array[Int] = {
      val a = targetsByComp.keySet().toArray.map(_.asInstanceOf[Integer].intValue)
      java.util.Arrays.sort(a); a
    }
    // comps that can reach (or are) a target comp: DFS region restriction
    private val region: java.util.BitSet = {
      val r = new java.util.BitSet(c.numComps)
      val stack = new scala.collection.mutable.ArrayDeque[Int]()
      targetComps.foreach { tc => if (!r.get(tc)) { r.set(tc); stack.prepend(tc) } }
      while (stack.nonEmpty) {
        val comp = stack.removeHead()
        c.dagParents(comp).foreach { p =>
          if (!r.get(p)) { r.set(p); stack.prepend(p) }
        }
      }
      r
    }
    // memo: comp -> reachable targets (strictly across DAG edges)
    private val memo =
      new java.util.concurrent.ConcurrentHashMap[Integer, Array[Int]]()

    /** Sorted target node ids reachable from `u` (>=1 edge paths). */
    def from(u: Int): Array[Int] = {
      val cu = c.comp(u)
      val strict = strictFromComp(cu)
      if (c.isCyclic(cu)) {
        val own = targetsByComp.get(cu)
        if (own == null) strict else merge(strict, own)
      } else strict
    }

    /** Targets in comps strictly below `comp` in the DAG. */
    private def strictFromComp(comp: Int): Array[Int] = {
      val hit = memo.get(comp)
      if (hit != null) return hit
      val seen = new java.util.BitSet(c.numComps)
      val stack = new scala.collection.mutable.ArrayDeque[Int]()
      val acc = new scala.collection.mutable.ArrayBuffer[Int]()
      stack.prepend(comp)
      while (stack.nonEmpty) {
        val cc = stack.removeHead()
        c.dagChildren(cc).foreach { k =>
          if (region.get(k) && !seen.get(k)) {
            seen.set(k)
            val t = targetsByComp.get(k)
            if (t != null) acc ++= t
            stack.prepend(k)
          }
        }
      }
      val out = acc.toArray
      java.util.Arrays.sort(out)
      memo.put(comp, out)
      out
    }

    private def merge(a: Array[Int], b: Array[Int]): Array[Int] = {
      val out = new Array[Int](a.length + b.length)
      var i = 0; var j = 0; var k = 0
      while (i < a.length && j < b.length) {
        if (a(i) < b(j)) { out(k) = a(i); i += 1 }
        else if (a(i) > b(j)) { out(k) = b(j); j += 1 }
        else { out(k) = a(i); i += 1; j += 1 }
        k += 1
      }
      while (i < a.length) { out(k) = a(i); i += 1; k += 1 }
      while (j < b.length) { out(k) = b(j); j += 1; k += 1 }
      if (k == out.length) out else java.util.Arrays.copyOf(out, k)
    }
  }

  def targeted(targets: Array[Int]): TargetedReach = new TargetedReach(targets)
}

object ReachOps {
  def apply(g: Graph): ReachOps = new ReachOps(g, Condensation(g))
}
