package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.{MJoin, RIG, SearchOrder, Simulation}
import repro.graph.Graph
import repro.graph.reach.{BFL, ReachOps}
import repro.pattern.{Direct, PEdge, Pattern, Reach}

/** The tree-based approach TM (paper §7.1, following [59]):
  *
  *  1. extract a spanning tree of the pattern (BFS over the undirected
  *     pattern, keeping one original directed edge per tree link);
  *  2. evaluate the tree query with the tree-pattern algorithm of [59]
  *     (tree double simulation + answer-graph enumeration — for trees one
  *     simulation pass is exact, which is what makes TM competitive on
  *     tree-shaped workloads);
  *  3. stream the tree solutions and post-filter each against the pattern
  *     edges *missing* from the tree, checking direct edges on adjacency
  *     lists and reachability edges on the BFL index.
  *
  * TM's defining weakness — which the paper's timeouts trace to — is step 3:
  * when the tree has vastly more solutions than the full pattern, almost all
  * streamed tuples are discarded.
  */
object TM {

  /** Counts occurrences of `p`; enumeration is distributed over tree-RIG
    * seeds like [[MJoin.answerDF]]. Honors the cooperative deadline in
    * [[repro.util.Timing]].
    */
  def countMatches(spark: SparkSession, ops: ReachOps, bfl: BFL, p: Pattern,
                   limit: Long = Long.MaxValue,
                   prefilter: Boolean = true): Long = {
    val treeP = spanningTree(p)
    val missing = p.edges.filterNot(treeP.edges.contains)
    val init =
      if (prefilter) Simulation.prefilter(ops, p) // pre-filter uses the full pattern
      else Simulation.matchSets(ops, p)
    // Tree double simulation stabilizes in one pass (paper §4.4 / [59]).
    val sim = Simulation.fbSim(ops, treeP, init, maxPasses = 2)
    val rig = RIG.expand(ops, treeP, sim.fb)
    if (rig.isEmpty) return 0L
    val order = SearchOrder.jo(rig)

    val seeds = rig.cos(order(0))
    val sc = spark.sparkContext
    if (seeds.length < 64) {
      var count = 0L
      MJoin.enumerate(rig, order) { t =>
        if (satisfiesMissing(ops.g, bfl, missing, t)) count += 1
        count < limit
      }
      count
    } else {
      val bRig = sc.broadcast(rig)
      val bBfl = sc.broadcast(bfl)
      val parts = math.max(1, math.min(sc.defaultParallelism * 4, seeds.length / 16))
      val total = sc.parallelize(seeds.toIndexedSeq, parts)
        .mapPartitions { it =>
          val rigL = bRig.value; val bflL = bBfl.value
          var count = 0L
          MJoin.enumerateSeeds(rigL, order, it.toArray) { t =>
            if (satisfiesMissing(bflL.g, bflL, missing, t)) count += 1
            count < limit
          }
          Iterator.single(count)
        }
        .fold(0L)(_ + _)
      bRig.destroy(); bBfl.destroy()
      math.min(total, limit)
    }
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
