package repro.pattern

/** Transitive reduction of hybrid pattern queries (paper §3).
  *
  * A reachability edge (x, y) is *transitive* — hence redundant — when some
  * other simple directed path from x to y exists in the pattern (mixing direct
  * and reachability edges). The reduction removes exactly those edges; direct
  * edges are never removed because they constrain strictly more than any path.
  *
  * [[reduce]] runs one DFS per reachability edge and drops the edge when the
  * other kept edges still connect its endpoints; it builds no closure. Only
  * tests call [[closurePairs]], the closure of the paper's inference rules
  * IR1 (direct implies reachability) and IR2 (reachability composes).
  */
object TransitiveReduction {

  /** Pairs (x, y) with a directed path x -> y in the pattern (>=1 edge),
    * i.e. the closure produced by exhaustively applying IR1 and IR2.
    */
  def closurePairs(p: Pattern): Set[(Int, Int)] = {
    val n = p.numNodes
    val reach = Array.fill(n, n)(false)
    p.edges.foreach(e => reach(e.from)(e.to) = true) // IR1: direct => reach
    var changed = true
    while (changed) { // IR2 to fixpoint (Floyd-Warshall-style, n is tiny)
      changed = false
      for (i <- 0 until n; j <- 0 until n if reach(i)(j); k <- 0 until n)
        if (reach(j)(k) && !reach(i)(k)) { reach(i)(k) = true; changed = true }
    }
    (for (i <- 0 until n; j <- 0 until n if reach(i)(j)) yield (i, j)).toSet
  }

  /** Removes redundant (transitive) reachability edges. Greedy over edges:
    * an edge goes away when a path that avoids it still connects its
    * endpoints; removal order is deterministic. For acyclic patterns this is
    * the unique transitive reduction (paper Def. 3.1).
    */
  def reduce(p: Pattern): Pattern = {
    var kept = p.edges
    var i = 0
    while (i < kept.length) {
      val e = kept(i)
      if (e.kind == Reach) {
        val without = kept.patch(i, Nil, 1)
        if (hasPath(p.numNodes, without, e.from, e.to)) {
          kept = without
          // stay at index i: the next edge shifted into this slot
        } else i += 1
      } else i += 1
    }
    p.copy(edges = kept)
  }

  private def hasPath(n: Int, edges: Vector[PEdge], from: Int, to: Int): Boolean = {
    val adj = edges.groupBy(_.from)
    val seen = scala.collection.mutable.BitSet(from)
    val stack = scala.collection.mutable.ArrayDeque(from)
    while (stack.nonEmpty) {
      val q = stack.removeHead()
      adj.getOrElse(q, Vector.empty).foreach { e =>
        if (e.to == to) return true
        if (seen.add(e.to)) stack.prepend(e.to)
      }
    }
    false
  }
}
