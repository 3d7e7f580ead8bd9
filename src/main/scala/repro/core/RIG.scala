package repro.core

import org.apache.spark.sql.SparkSession
import org.roaringbitmap.RoaringBitmap
import repro.graph.reach.ReachOps
import repro.pattern.{Direct, EdgeKind, Pattern, Reach}
import repro.util.Timing

/** Runtime Index Graph (paper §4, Def. 4.1).
  *
  * A k-partite graph over candidate occurrence sets `cos(q)` (one independent
  * set per query node) whose edge sets `cos(e)` sandwich the answer:
  * `os(e) ⊆ cos(e) ⊆ ms(e)`. Adjacency inside the RIG is indexed by query
  * edge so MJoin can multi-way intersect adjacency lists (§5).
  *
  * @param cos    per query node: sorted candidate node ids
  * @param fwdAdj per pattern edge index: for each position in cos(e.from),
  *               the sorted successors within cos(e.to)
  * @param bwdAdj per pattern edge index: for each position in cos(e.to),
  *               the sorted predecessors within cos(e.from), built by the
  *               reverse direction of the same row kernel ([[RIG.edgeMatches]])
  *
  * Rows are read-only: members of one SCC share a single reachability row.
  */
final class RIG(
    val pattern: Pattern,
    val cos: Array[Array[Int]],
    val fwdAdj: Array[Array[Array[Int]]],
    val bwdAdj: Array[Array[Array[Int]]],
) extends Serializable {

  def numNodes: Long = cos.map(_.length.toLong).sum
  def numEdges: Long = fwdAdj.map(_.map(_.length.toLong).sum).sum
  def size: Long = numNodes + numEdges
  def isEmpty: Boolean = cos.exists(_.isEmpty)

  /** Position of node id `v` inside cos(q), or -1. */
  def posIn(q: Int, v: Int): Int = {
    val i = java.util.Arrays.binarySearch(cos(q), v)
    if (i >= 0) i else -1
  }

  /** Successors of `v` (a member of cos(edge.from)) across pattern edge `e`. */
  def successors(e: Int, v: Int): Array[Int] = {
    val pos = posIn(pattern.edges(e).from, v)
    if (pos < 0) Array.emptyIntArray else fwdAdj(e)(pos)
  }

  /** Predecessors of `v` (a member of cos(edge.to)) across pattern edge `e`. */
  def predecessors(e: Int, v: Int): Array[Int] = {
    val pos = posIn(pattern.edges(e).to, v)
    if (pos < 0) Array.emptyIntArray else bwdAdj(e)(pos)
  }
}

/** Algorithm 4 (BuildRIG): node selection via double simulation, then node
  * expansion with incident edges. Direct edges expand by intersecting graph
  * adjacency rows with cos(q) (the paper's `bitBat`); reachability edges
  * expand through [[ReachOps.TargetedReach]] (condensation-DFS with region
  * pruning, one row per SCC). Both adjacency directions come from the same
  * kernel, run forward and backward. Expansion is in-memory on the driver,
  * as in the paper, and honours the cooperative deadline in [[Timing]].
  */
object RIG {

  /** Sources expanded between two deadline checks. */
  private val DeadlineStride = 64

  /** Kept for the frozen benchmark; `spark` is ignored and nothing under `src/` calls this. */
  def expand(ops: ReachOps, p: Pattern, cosSets: Array[RoaringBitmap],
             spark: Option[SparkSession]): RIG = expand(ops, p, cosSets)

  /** Build the RIG edges over already-selected candidate sets. */
  def expand(ops: ReachOps, p: Pattern, cosSets: Array[RoaringBitmap]): RIG = {
    val cos: Array[Array[Int]] = cosSets.map(_.toArray)
    if (cos.exists(_.isEmpty)) {
      val empty = p.edges.indices.map(_ => Array.empty[Array[Int]]).toArray
      return new RIG(p, cos.map(_ => Array.emptyIntArray), empty, empty)
    }

    val fwd = p.edges.map(e => edgeMatches(ops, e.kind, cos(e.from), cosSets(e.to))).toArray
    val bwd = p.edges.map(e =>
      edgeMatches(ops, e.kind, cos(e.to), cosSets(e.from), forward = false)).toArray
    new RIG(p, cos, fwd, bwd)
  }

  /** Edge matches ms(e) over candidate sets (paper §4.1) for an edge of kind
    * `kind`: row `i` holds the sorted members `t` of `targets` with
    * `(sources(i), t)` in ms(e), or with `(t, sources(i))` when `!forward`
    * (the backward adjacency). The one producer of edge matches: RIG
    * expansion and JM's edge relations both call it. Rows may be shared
    * between sources: do not mutate them.
    */
  def edgeMatches(ops: ReachOps, kind: EdgeKind, sources: Array[Int],
                  targets: RoaringBitmap, forward: Boolean = true): Array[Array[Int]] = {
    val row: Int => Array[Int] = kind match {
      case Reach => ops.targeted(targets.toArray, forward).from
      case Direct =>
        // adj(vp) ∩ targets: stream the sorted adjacency row through the bitmap.
        val g = ops.g
        val (off, adj) = if (forward) (g.fwdOff, g.fwdAdj) else (g.bwdOff, g.bwdAdj)
        vp => {
          val out = new scala.collection.mutable.ArrayBuilder.ofInt
          var i = off(vp)
          while (i < off(vp + 1)) {
            val w = adj(i)
            if (targets.contains(w)) out += w
            i += 1
          }
          out.result()
        }
    }
    Array.tabulate(sources.length) { sp =>
      if (sp % DeadlineStride == 0) Timing.checkDeadline()
      row(sources(sp))
    }
  }

  /** Full BuildRIG: select (double simulation) then expand. */
  def build(ops: ReachOps, p: Pattern,
            init: Array[RoaringBitmap],
            maxPasses: Int = 3): (RIG, Simulation.Result) = {
    val sim = Simulation.fbSim(ops, p, init, maxPasses)
    (expand(ops, p, sim.fb), sim)
  }
}
