package repro.graph.reach

import repro.graph.{Condensation, Graph}

/** Bloom Filter Labeling reachability index (Su, Zhu, Wei, Yu — TKDE'17 [50]),
  * the scheme the paper uses for all reachability checking.
  *
  * Built on the SCC condensation DAG. Each component c carries:
  *   - a GRAIL-style interval label `[start(c), rank(c)]` where `rank` is a
  *     DFS post-order and `start(c) = min(rank(c), min over out-neighbors)`;
  *     `u ≺ v` implies `interval(v) ⊆ interval(u)` — a cheap negative cut;
  *   - Bloom labels `Lout(c)` (hashes of c and all its descendants) and
  *     `Lin(c)` (hashes of c and all its ancestors); `u ≺ v` implies
  *     `Lout(v) ⊆ Lout(u)` and `Lin(u) ⊆ Lin(v)` — two more negative cuts.
  *
  * Positive answers fall back to a DFS over the condensation DAG that prunes
  * with the same three cuts plus the topological ordering of component ids.
  * Construction is O(|V| + |E| + C·B) — the "BFL is cheap to build" property
  * that Fig. 18(a) contrasts with transitive-closure materialization.
  */
final class BFL(
    val g: Graph,
    val cond: Condensation,
    rank: Array[Int],
    start: Array[Int],
    lout: Array[Long],
    lin: Array[Long],
    words: Int,
) {

  private def subsetOf(child: Array[Long], co: Int, parent: Array[Long], po: Int): Boolean = {
    var i = 0
    while (i < words) {
      val c = child(co + i)
      if ((c & parent(po + i)) != c) return false
      i += 1
    }
    true
  }

  /** Necessary conditions for comp cu reaching comp cv (cu != cv assumed). */
  private def mayReach(cu: Int, cv: Int): Boolean =
    cu < cv &&                                     // topo order cut
      start(cu) <= start(cv) && rank(cv) <= rank(cu) && // interval cut
      subsetOf(lout, cv * words, lout, cu * words) &&   // Bloom out cut
      subsetOf(lin, cu * words, lin, cv * words)        // Bloom in cut

  /** u ≺ v — path of at least one edge (Def. 2.2). */
  def reaches(u: Int, v: Int): Boolean = {
    val cu = cond.comp(u); val cv = cond.comp(v)
    if (cu == cv) return cond.isCyclic(cu)
    if (!mayReach(cu, cv)) return false
    // Pruned DFS over the condensation DAG.
    val visited = new java.util.BitSet(cond.numComps)
    val stack = new scala.collection.mutable.ArrayDeque[Int]()
    stack.prepend(cu)
    visited.set(cu)
    while (stack.nonEmpty) {
      val comp = stack.removeHead()
      val kids = cond.dagChildren(comp)
      var i = 0
      while (i < kids.length) {
        val k = kids(i)
        if (k == cv) return true
        if (!visited.get(k) && mayReach(k, cv)) { visited.set(k); stack.prepend(k) }
        i += 1
      }
    }
    false
  }
}

object BFL {

  /** Builds the index; `bloomBits` must be a multiple of 64. */
  def apply(g: Graph, bloomBits: Int = 128): BFL = build(g, Condensation(g), bloomBits)

  def build(g: Graph, cond: Condensation, bloomBits: Int = 128): BFL = {
    require(bloomBits % 64 == 0, "bloomBits must be a multiple of 64")
    val words = bloomBits / 64
    val c = cond.numComps

    // Post-order ranks via iterative DFS over the condensation DAG.
    val rank = new Array[Int](c)
    val start = new Array[Int](c)
    var nextRank = 0
    val state = new Array[Byte](c) // 0 = unvisited, 1 = in progress, 2 = done
    val stack = new scala.collection.mutable.ArrayDeque[Int]()
    var root = 0
    while (root < c) {
      if (state(root) == 0) {
        stack.prepend(root)
        while (stack.nonEmpty) {
          val comp = stack.head
          if (state(comp) == 0) {
            state(comp) = 1
            cond.dagChildren(comp).foreach { k => if (state(k) == 0) stack.prepend(k) }
          } else {
            stack.removeHead()
            if (state(comp) == 1) {
              state(comp) = 2
              rank(comp) = nextRank; nextRank += 1
            }
          }
        }
      }
      root += 1
    }
    // start(c) = min(rank(c), min over children's start). Component ids are a
    // forward topological order, so iterating high-to-low sees children first.
    var comp = c - 1
    while (comp >= 0) {
      var s = rank(comp)
      cond.dagChildren(comp).foreach { k => if (start(k) < s) s = start(k) }
      start(comp) = s
      comp -= 1
    }

    // Bloom labels. A component hashes to one bit position.
    def hashBit(x: Int): Int = {
      var h = x * -1640531527 // Knuth multiplicative
      h ^= (h >>> 15)
      math.floorMod(h, bloomBits)
    }
    val lout = new Array[Long](c * words)
    val lin = new Array[Long](c * words)
    def setBit(arr: Array[Long], comp: Int, bit: Int): Unit =
      arr(comp * words + (bit >> 6)) |= (1L << (bit & 63))
    def orInto(arr: Array[Long], dst: Int, src: Int): Unit = {
      var i = 0
      while (i < words) { arr(dst * words + i) |= arr(src * words + i); i += 1 }
    }
    // Lout: reverse topological order (children before parents).
    comp = c - 1
    while (comp >= 0) {
      setBit(lout, comp, hashBit(comp))
      cond.dagChildren(comp).foreach(k => orInto(lout, comp, k))
      comp -= 1
    }
    // Lin: forward topological order (parents before children).
    comp = 0
    while (comp < c) {
      setBit(lin, comp, hashBit(comp))
      cond.dagParents(comp).foreach(p => orInto(lin, comp, p))
      comp += 1
    }
    new BFL(g, cond, rank, start, lout, lin, words)
  }
}
