package repro.core

import org.roaringbitmap.RoaringBitmap
import repro.graph.reach.ReachOps
import repro.pattern.{PEdge, Pattern, Reach}
import repro.util.Timing

/** Double simulation FB of a pattern by a data graph (paper §4.2–§4.4).
  *
  * FB is the largest relation S ⊆ V_Q × V_G such that matched nodes agree on
  * labels and every pattern edge is forward- and backward-satisfiable within
  * S, with direct edges checked against graph edges and reachability edges
  * against paths. All pruning here uses the paper's *batch* bitmap method
  * (§4.5 `bitBat`): one [[ReachOps.semijoin]] call keeps the members of one
  * candidate set that have a match in another across one pattern edge, after
  * an AND with the query-independent label memo ([[ReachOps.labelSemijoin]])
  * has dropped those with no labelled partner at all. Candidate bitmaps are
  * values: no pass mutates its `init` sets or the memo.
  *
  * Three algorithms are provided: [[fbSimBas]] (arbitrary edge order),
  * [[fbSimDag]] (topological passes, dag patterns only) and [[fbSim]]
  * (dag + Δ back edges, any pattern). `maxPasses` implements the paper's
  * convergence cut-off (fixed to 3 in their experiments); pruning is always
  * sound, so a truncated run still yields a valid RIG search space.
  */
object Simulation {

  final case class Result(fb: Array[RoaringBitmap], passes: Int) {
    def isEmpty: Boolean = fb.exists(_.isEmpty)
  }

  /** Initial candidate sets: the match sets ms(q) (label inverted lists). */
  def matchSets(ops: ReachOps, p: Pattern): Array[RoaringBitmap] =
    Array.tabulate(p.numNodes) { q =>
      ops.g.labelId(p.labels(q)) match {
        case Some(l) => ops.g.invertedBitmap(l).clone()
        case None => new RoaringBitmap()
      }
    }

  /** Keeps the candidates of one end of `e` that have a match at the other:
    * the tail (`tail`) keeps nodes with an edge or path into FB(e.to), the
    * head nodes with one from FB(e.from). It first ANDs FB(keep) with the
    * other end's label memo ([[ReachOps.labelSemijoin]]); that is the answer
    * when FB(other) is still the whole inverted list, and otherwise only the
    * survivors stream their rows through [[ReachOps.semijoin]]. Needs
    * FB(other) ⊆ ms(other). Stores a new bitmap in `fb` and mutates none;
    * returns true iff the set shrank.
    */
  private def prune(ops: ReachOps, p: Pattern, fb: Array[RoaringBitmap], e: PEdge,
                    tail: Boolean): Boolean = {
    Timing.checkDeadline()
    val (keep, other) = if (tail) (e.from, e.to) else (e.to, e.from)
    val path = e.kind == Reach
    val kept = ops.g.labelId(p.labels(other)) match {
      case None => new RoaringBitmap() // ms(other), and so FB(other), is empty
      case Some(l) =>
        val hinted = RoaringBitmap.and(fb(keep), ops.labelSemijoin(l, path, forward = tail))
        if (fb(other).getCardinality == ops.g.invertedList(l).length) hinted
        else ops.semijoin(hinted, fb(other), path, forward = tail)
    }
    val shrank = kept.getCardinality != fb(keep).getCardinality
    fb(keep) = kept
    shrank
  }

  /** Algorithm 1 (FBSimBas): arbitrary edge order, forward sweep then
    * backward sweep, until stable (or `maxPasses`).
    *
    * Requires `init(q) ⊆ ms(q)` for every q (as from [[matchSets]] or
    * [[prefilter]]): pruning trusts the label memo when a set is still its
    * whole inverted list.
    */
  def fbSimBas(ops: ReachOps, p: Pattern, init: Array[RoaringBitmap],
               maxPasses: Int = Int.MaxValue): Result = {
    val fb = init.clone()
    var passes = 0
    var changed = true
    while (changed && passes < maxPasses && !fb.exists(_.isEmpty)) {
      changed = false
      p.edges.foreach(e => changed |= prune(ops, p, fb, e, tail = true))
      p.edges.foreach(e => changed |= prune(ops, p, fb, e, tail = false))
      passes += 1
    }
    Result(normalizeEmpty(fb), passes)
  }

  /** Algorithm 2 (FBSimDag): bottom-up (reverse topological) forward pass,
    * then top-down backward pass, until stable. Dag patterns only.
    *
    * The per-node dirty flags implement the paper's first convergence tuning:
    * an edge is re-checked in a pass only if one of its endpoint sets shrank
    * in the previous pass.
    *
    * Requires `init(q) ⊆ ms(q)` for every q, as [[fbSimBas]] does.
    */
  def fbSimDag(ops: ReachOps, p: Pattern, init: Array[RoaringBitmap],
               maxPasses: Int = Int.MaxValue): Result = {
    val topo = p.topologicalOrder.getOrElse(
      throw new IllegalArgumentException(s"${p.name} is not a dag"))
    val fb = init.clone()
    var passes = 0
    var changed = true
    val dirtyPrev = Array.fill(p.numNodes)(true)
    while (changed && passes < maxPasses && !fb.exists(_.isEmpty)) {
      changed = false
      val dirtyNow = Array.fill(p.numNodes)(false)
      topo.reverse.foreach { q =>
        p.outEdges(q).foreach { e =>
          if (dirtyPrev(e.from) || dirtyPrev(e.to) || dirtyNow(e.to))
            if (prune(ops, p, fb, e, tail = true)) { changed = true; dirtyNow(e.from) = true }
        }
      }
      topo.foreach { q =>
        p.inEdges(q).foreach { e =>
          if (dirtyPrev(e.from) || dirtyPrev(e.to) || dirtyNow(e.from) || dirtyNow(e.to))
            if (prune(ops, p, fb, e, tail = false)) { changed = true; dirtyNow(e.to) = true }
        }
      }
      System.arraycopy(dirtyNow, 0, dirtyPrev, 0, p.numNodes)
      passes += 1
    }
    Result(normalizeEmpty(fb), passes)
  }

  /** Algorithm 3 (FBSim, "dag + Δ"): run dag passes on the acyclic core and
    * basic passes on the back-edge set Δ, iterating to a joint fixpoint.
    *
    * Requires `init(q) ⊆ ms(q)` for every q, as [[fbSimBas]] does.
    */
  def fbSim(ops: ReachOps, p: Pattern, init: Array[RoaringBitmap],
            maxPasses: Int = Int.MaxValue): Result = {
    if (p.isDag) return fbSimDag(ops, p, init, maxPasses)
    val (dagPart, backEdges) = p.dagDecomposition
    var fb = init.clone()
    var passes = 0
    var changed = true
    while (changed && passes < maxPasses && !fb.exists(_.isEmpty)) {
      changed = false
      val dagRes = fbSimDag(ops, dagPart, fb, maxPasses = 1)
      if (!sameCards(fb, dagRes.fb)) changed = true
      fb = dagRes.fb
      backEdges.foreach { e =>
        changed |= prune(ops, p, fb, e, tail = true)
        changed |= prune(ops, p, fb, e, tail = false)
      }
      passes += 1
    }
    Result(normalizeEmpty(fb), passes)
  }

  private def sameCards(a: Array[RoaringBitmap], b: Array[RoaringBitmap]): Boolean =
    a.indices.forall(i => a(i).getCardinality == b(i).getCardinality)

  /** If any candidate set is empty the query answer is empty — clear all sets
    * so callers see an empty RIG (the paper's early-termination property).
    */
  private def normalizeEmpty(fb: Array[RoaringBitmap]): Array[RoaringBitmap] =
    if (fb.exists(_.isEmpty)) fb.map(_ => new RoaringBitmap()) else fb

  /** Node pre-filtering of [11, 63] as used by JM/TM and GM-F: a single
    * non-iterated forward+backward sweep over the edges (prunes candidates
    * with no matching partner per adjacent edge, but does not iterate to the
    * simulation fixpoint).
    */
  def prefilter(ops: ReachOps, p: Pattern): Array[RoaringBitmap] =
    fbSimBas(ops, p, matchSets(ops, p), maxPasses = 1).fb
}
