package repro.engines

import repro.core.{MJoin, RIG, SearchOrder, Simulation}
import repro.graph.reach.ReachOps
import repro.pattern.Pattern

/** Behavioural analogue of EmptyHeaded (paper §7.5, [4]).
  *
  * EH is a worst-case-optimal join engine over edge relations: it *precomputes*
  * sorted trie indexes of the input relations (the expensive step the paper
  * reports separately as `EH` vs `EH-probe`) and then enumerates with multiway
  * intersections directly on the data — no reachability support, no candidate
  * pruning. We model the precompute as materializing the full match RIG
  * (label-restricted sorted adjacency, exactly a trie over each edge relation)
  * and the probe as MJoin over it.
  *
  * C-queries only, like the real system.
  */
object EHLike {

  final case class Result(precomputeSec: Double, probe: () => Long)

  /** Prepares the tries (timed) and returns a thunk running the probe. */
  def prepare(ops: ReachOps, p: Pattern, limit: Long = Long.MaxValue): Result = {
    require(p.edges.forall(_.kind == repro.pattern.Direct),
      "EHLike evaluates child-edge-only (C) queries")
    val start = System.nanoTime()
    // Precompute: full match-set "tries" — no filtering, the whole ms(q)/ms(e).
    val rig = RIG.expand(ops, p, Simulation.matchSets(ops, p))
    val precomputeSec = (System.nanoTime() - start) / 1e9
    val probe = () => MJoin.count(rig, SearchOrder.jo(rig), limit)
    Result(precomputeSec, probe)
  }
}
