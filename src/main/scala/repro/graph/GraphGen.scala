package repro.graph

import scala.util.Random

/** Synthetic stand-ins for the paper's nine SNAP datasets (Table 2).
  *
  * The evaluation image is offline, so the real SNAP downloads are replaced by
  * deterministic generators that match each dataset's |V|, |E|, |L| and degree
  * shape (power-law out-degree for web/product graphs, flatter for the biology
  * graphs). This preserves what drives the paper's algorithms: inverted-list
  * cardinalities, match-set sizes and reachability fan-out. The substitution is
  * documented in DESIGN.md §3.
  *
  * Each generator draws node labels, then `(u, v)` attempts in rounds until
  * `numEdges` distinct non-loop edges exist or its attempt cap is spent: a round
  * packs one attempt per missing edge (fewer at the cap) and [[Graph.sortUnique]]
  * recounts. k attempts add at most k edges, so a round ends on the target only if
  * all k were new, at the attempt where a per-attempt set check would stop too.
  */
object GraphGen {

  /** Degree model of a dataset family. `plAlpha` skews edge endpoints toward
    * low node ids with probability density ~ u^plAlpha (plAlpha = 1 → uniform).
    */
  final case class Spec(
      name: String,
      numNodes: Int,
      numEdges: Int,
      numLabels: Int,
      plAlpha: Double,
      seed: Long,
  )

  /** Paper Table 2, scaled by `scale` on both |V| and |E| (labels unchanged). */
  def specs(scale: Double = 1.0): Map[String, Spec] = {
    def s(name: String, v: Int, e: Int, l: Int, alpha: Double, seed: Long) =
      name -> Spec(name, math.max(16, (v * scale).toInt), math.max(32, (e * scale).toInt), l, alpha, seed)
    Map(
      s("yt", 3_100, 12_000, 71, 1.2, 101),   // Yeast
      s("hu", 4_600, 86_000, 44, 1.0, 102),   // Human (dense, near-uniform)
      s("hp", 9_400, 35_000, 307, 1.2, 103),  // HPRD
      s("ep", 76_000, 509_000, 20, 2.0, 104), // Epinions (social, skewed)
      s("db", 317_000, 1_049_000, 20, 1.8, 105), // DBLP
      s("em", 265_000, 420_000, 20, 2.2, 106),   // Email (sparse, skewed)
      s("am", 403_000, 3_500_000, 3, 1.5, 107),  // Amazon
      s("bs", 685_000, 7_600_000, 5, 2.5, 108),  // BerkStan (web, heavy tail)
      s("go", 876_000, 5_100_000, 5, 2.3, 109),  // Google
    )
  }

  /** Generates the graph for `spec`. Deterministic in the spec's seed. */
  def generate(spec: Spec): Graph = {
    val rnd = new Random(spec.seed)
    val n = spec.numNodes
    // Label assignment: mild Zipf over labels so inverted lists differ in size
    // (real label distributions are non-uniform; uniform lists would make JO
    // ordering trivially uninformative).
    val labelWeights = Array.tabulate(spec.numLabels)(i => 1.0 / math.pow(i + 1, 0.5))
    val wSum = labelWeights.sum
    val cdf = labelWeights.scanLeft(0.0)(_ + _).tail.map(_ / wSum)
    def drawLabel(): Int = {
      val u = rnd.nextDouble()
      val i = java.util.Arrays.binarySearch(cdf, u)
      val idx = if (i >= 0) i else -i - 1
      math.min(idx, spec.numLabels - 1)
    }
    val nodeLabels = Array.fill(n)(drawLabel())

    // Endpoint draw: id = floor(n * u^alpha). alpha > 1 concentrates mass on
    // low ids, yielding a heavy-tailed degree distribution.
    def drawNode(): Int =
      math.min(n - 1, (n * math.pow(rnd.nextDouble(), spec.plAlpha)).toInt)

    drawEdges(nodeLabels, spec.numLabels, spec.numEdges, maxAttempts = spec.numEdges * 4L)(drawNode())
  }

  /** Named dataset at a node/edge scale factor (1.0 = paper-sized). */
  def dataset(name: String, scale: Double = 1.0): Graph =
    generate(specs(scale)(name))

  /** A fragment of a dataset: same family, fewer nodes (paper §7.3/§7.5 uses
    * Email fragments of 1K–30K nodes with 5–20 labels). Edge count scales
    * proportionally to the node count.
    */
  def fragment(name: String, nodes: Int, numLabels: Int, seed: Long = 0): Graph = {
    val base = specs(1.0)(name)
    val e = math.max(32, (base.numEdges.toLong * nodes / base.numNodes).toInt)
    generate(base.copy(numNodes = nodes, numEdges = e, numLabels = numLabels,
                       seed = base.seed * 31 + seed))
  }

  /** Small uniform random labeled digraph — unit-test workhorse. */
  def random(n: Int, e: Int, nLabels: Int, seed: Long): Graph = {
    val rnd = new Random(seed)
    val labels = Array.fill(n)(rnd.nextInt(nLabels))
    drawEdges(labels, nLabels, e, maxAttempts = e * 10L)(rnd.nextInt(n))
  }

  /** The one draw loop (see above): labels `l0`, `l1`, ... and `draw`n endpoints. */
  private def drawEdges(labels: Array[Int], numLabels: Int, numEdges: Int, maxAttempts: Long)(
      draw: => Int): Graph = {
    val edges = new Array[Long](numEdges)
    var distinct = 0
    var attempts = 0L
    var k = 0
    while ({ k = math.min(numEdges - distinct, maxAttempts - attempts).toInt; k > 0 }) {
      for (i <- distinct until distinct + k) { val u = draw; val v = draw; edges(i) = Graph.pack(u, v) }
      attempts += k
      distinct = Graph.sortUnique(edges, distinct + k)
    }
    Graph.csr(labels.length, edges, distinct)(new Graph(labels, Array.tabulate(numLabels)("l" + _), _, _, _, _))
  }
}
