package repro.engines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{MJoin, RIG, SearchOrder, Simulation}
import repro.graph.reach.ReachOps
import repro.pattern.Pattern
import repro.util.Timing

/** Behavioural analogue of GraphflowDB (paper §7.5, [38]).
  *
  * GF is a WCO-join engine whose optimizer relies on a *catalog* of subgraph
  * cardinalities precomputed per data graph — the step the paper shows blowing
  * up with the number of labels and nodes (Figs 16a, 18a: out-of-memory on
  * em/ep/hp). The catalog here counts, per label sequence, the edges and the
  * 2-paths of the graph via DataFrame aggregation — entry count grows with
  * |L|^3, and a configurable entry budget models GF's OOM failures.
  *
  * GF has no reachability support: D-queries must be evaluated over a
  * materialized transitive closure (the paper feeds it one; we do the same,
  * see [[repro.graph.reach.TransitiveClosure]]).
  */
object GFLike {

  /** Catalog: label-pair edge counts and label-triple 2-path counts. */
  final case class Catalog(
      pairCounts: Map[(String, String), Long],
      tripleCounts: Map[(String, String, String), Long],
      buildSec: Double,
  )

  /** Builds the catalog with DataFrame joins; throws SimulatedOOM when the
    * entry count exceeds `entryBudget` (GF's observed failure mode).
    */
  def buildCatalog(nodes: DataFrame, edges: DataFrame,
                   entryBudget: Long = 2_000_000L): Catalog = {
    val start = System.nanoTime()
    val labeled = edges.as("e")
      .join(nodes.as("a"), col("e.src") === col("a.id"))
      .join(nodes.as("b"), col("e.dst") === col("b.id"))
      .select(col("a.label").as("ls"), col("b.label").as("lt"),
        col("e.src").as("src"), col("e.dst").as("dst"))
      .cache()
    val pairs = labeled.groupBy("ls", "lt").count().collect()
      .map(r => ((r.getString(0), r.getString(1)), r.getLong(2))).toMap
    val twoPaths = labeled.as("x")
      .join(labeled.as("y"), col("x.dst") === col("y.src"))
      .groupBy(col("x.ls"), col("x.lt"), col("y.lt")).count()
    val tpCount = twoPaths.count()
    val nLabels = nodes.select("label").distinct().count()
    // GF's catalog covers all label sequences for every sampled subgraph
    // shape; its footprint scales with |L|^3 x intermediate 2-path volume.
    val footprint = tpCount * nLabels
    if (footprint > entryBudget)
      throw new Timing.SimulatedOOM(
        s"catalog footprint $footprint entries > budget $entryBudget")
    val triples = twoPaths.collect()
      .map(r => ((r.getString(0), r.getString(1), r.getString(2)), r.getLong(3))).toMap
    labeled.unpersist()
    Catalog(pairs, triples, (System.nanoTime() - start) / 1e9)
  }

  /** Driver-side pair-count catalog (no 2-path statistics). Fig. 18(b)
    * reports GF query times with catalog construction excluded; this is the
    * cheap stand-in used there so only the query path is measured.
    */
  def catalogFromGraph(g: repro.graph.Graph): Catalog = {
    val counts = scala.collection.mutable.Map.empty[(String, String), Long].withDefaultValue(0L)
    g.edgeIterator.foreach { case (u, v) =>
      val k = (g.labelNames(g.labels(u)), g.labelNames(g.labels(v)))
      counts(k) += 1L
    }
    Catalog(counts.toMap, Map.empty, buildSec = 0.0)
  }

  /** WCO-join evaluation with a catalog-informed static order. Edge-to-edge
    * only: the caller must pass a transitive-closure graph for D-queries.
    */
  def countMatches(ops: ReachOps, catalog: Catalog, p: Pattern,
                   limit: Long = Long.MaxValue): Long = {
    require(p.edges.forall(_.kind == repro.pattern.Direct),
      "GFLike evaluates edge-to-edge queries (pass a TC graph for D-queries)")
    val rig = RIG.expand(ops, p, Simulation.matchSets(ops, p))
    MJoin.count(rig, catalogOrder(p, catalog), limit)
  }

  /** Greedy order: start at the edge with the fewest catalog matches, extend
    * by the adjacent node whose connecting edges have the smallest estimate.
    */
  private def catalogOrder(p: Pattern, cat: Catalog): Array[Int] = {
    def pairCount(ei: Int): Long = {
      val e = p.edges(ei)
      cat.pairCounts.getOrElse((p.labels(e.from), p.labels(e.to)), 0L)
    }
    val startEdge = p.edges.indices.minBy(pairCount)
    val e0 = p.edges(startEdge)
    val chosen = scala.collection.mutable.LinkedHashSet(e0.from, e0.to)
    while (chosen.size < p.numNodes) {
      val cands = (0 until p.numNodes)
        .filter(q => !chosen.contains(q) && p.neighbors(q).exists(chosen.contains))
      val next = cands.minBy { q =>
        val est = p.edges.filter(e =>
          (e.from == q && chosen.contains(e.to)) || (e.to == q && chosen.contains(e.from)))
          .map(e => cat.pairCounts.getOrElse((p.labels(e.from), p.labels(e.to)), Long.MaxValue / 2))
          .min
        (est, q.toLong)
      }
      chosen += next
    }
    chosen.toArray
  }
}
