package repro.baselines

import repro.core.{MJoin, RIG, SearchOrder, Simulation}
import repro.graph.Graph
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.{Direct, PEdge, Pattern, Reach}

/** The tree-based approach TM (paper §7.1, following [59]):
  *
  *  1. extract a spanning tree of the pattern (BFS over the undirected
  *     pattern, keeping one original directed edge per tree link);
  *  2. evaluate the tree query with the tree-pattern algorithm of [59]:
  *     tree double simulation builds a tree RIG (the answer graph), which
  *     [[MJoin]] enumerates on the driver — for trees one simulation pass is
  *     exact, which is what makes TM competitive on tree-shaped workloads;
  *  3. stream the tree solutions and post-filter each against the pattern
  *     edges *missing* from the tree, checking direct edges on adjacency
  *     lists and reachability edges on the BFL index.
  *
  * TM's defining weakness — which the paper's timeouts trace to — is step 3:
  * when the tree has vastly more solutions than the full pattern, almost all
  * streamed tuples are discarded.
  */
object TM {

  /** Counts occurrences of `p` by enumerating the tree RIG with
    * [[MJoin.enumerate]] on the driver and post-filtering every tree solution.
    * Honors the cooperative deadline in [[repro.util.Timing]].
    */
  def countMatches(ops: ReachOps, bfl: BFL, p: Pattern,
                   limit: Long = Long.MaxValue): Long = {
    val (rig, order, missing) = prepare(ops, p)
    var count = 0L
    MJoin.enumerate(rig, order) { t =>
      if (satisfiesMissing(ops.g, bfl, missing, t)) count += 1
      count < limit
    }
    count
  }

  /** The tree RIG of `p`'s spanning tree, its JO search order, and the
    * pattern edges the tree leaves out.
    */
  private[baselines] def prepare(ops: ReachOps, p: Pattern): (RIG, Array[Int], Seq[PEdge]) = {
    val treeP = spanningTree(p)
    val missing = p.edges.filterNot(treeP.edges.contains)
    val init = Simulation.prefilter(ops, p) // pre-filter uses the full pattern
    // Tree double simulation stabilizes in one pass (paper §4.4 / [59]).
    val sim = Simulation.fbSim(ops, treeP, init, maxPasses = 2)
    val rig = RIG.expand(ops, treeP, sim.fb)
    (rig, SearchOrder.jo(rig), missing)
  }

  /** Post-filter: does tuple `t` also satisfy the pattern edges the tree left out? */
  private def satisfiesMissing(g: Graph, bfl: BFL, missing: Seq[PEdge], t: Array[Int]): Boolean =
    missing.forall {
      case PEdge(f, to, Direct) => g.hasEdge(t(f), t(to))
      case PEdge(f, to, Reach) => bfl.reaches(t(f), t(to))
    }

  /** BFS spanning tree over the undirected pattern, keeping one original
    * directed edge per discovered node.
    */
  def spanningTree(p: Pattern): Pattern = {
    val seen = scala.collection.mutable.BitSet(0)
    val queue = scala.collection.mutable.Queue(0)
    val kept = Vector.newBuilder[PEdge]
    while (queue.nonEmpty) {
      val q = queue.dequeue()
      p.edges.foreach { e =>
        val other = if (e.from == q) Some(e.to) else if (e.to == q) Some(e.from) else None
        other.foreach { o =>
          if (!seen(o)) { seen += o; kept += e; queue.enqueue(o) }
        }
      }
    }
    p.copy(name = p.name + "-tree", edges = kept.result())
  }
}
