package gmperf

import repro.graph.{Graph, GraphGen}
import repro.pattern.{Pattern, Templates}

/** One benchmark query: a pattern instantiated on one generated dataset. */
final case class Query(name: String, dataset: String, pattern: Pattern)

/** A benchmark workload.
  *
  * @param datasets (name, scale) of every [[GraphGen]] dataset it queries
  * @param limit    `GM.Config.limit` of every query
  * @param rows     consume `GM.answer` DataFrames (row count and checksum)
  *                 instead of calling `GM.countMatches`
  * @param queries  the query set, from the generated graphs and the variant
  */
final case class Workload(
    name: String,
    datasets: Seq[(String, Double)],
    limit: Long,
    rows: Boolean,
    queries: (Map[String, Graph], Int) => Seq[Query],
)

/** The four workloads. Each is built so that one GM layer dominates its time
  * and another layer does almost no work in it:
  *
  *  - `reach-expand`: RIG reachability expansion (D queries on three copies
  *    of the sparse, skewed em graph, whose large SCCs make reach edges
  *    explode);
  *  - `enum-heavy`: MJoin enumeration (H queries on the dense hu graph, most
  *    hitting a 4e6 match cap over small RIGs);
  *  - `selective`: prefilter and double simulation (many short C queries on
  *    paper-scale db, plus ep; tiny RIGs);
  *  - `answer-rows`: answer DataFrame materialisation (`GM.answer` with no
  *    limit on hu, consumed by a Spark aggregate).
  *
  * The workload seed selects one of [[Variants]] input variants. The variant
  * offsets the generator seed of every dataset and shifts every label seed
  * given to [[Templates]], so the program under test only sees generated
  * graphs and patterns. References are committed for every variant.
  */
object Workloads {

  val Variants = 16

  def variant(seed: Long): Int = Math.floorMod(seed, Variants.toLong).toInt

  /** The paper-shaped dataset `name` at `scale`, its generator seed offset by
    * `variant`. A name `base.c` (as `em.1`) is copy c of dataset `base`: a
    * graph of the same shape from another generator seed; copy 0 is `base`.
    */
  def dataset(name: String, scale: Double, variant: Int): Graph = {
    val (base, copy) = name.split('.') match {
      case Array(b, c) => (b, c.toInt)
      case _ => (name, 0)
    }
    val spec = GraphGen.specs(scale)(base)
    GraphGen.generate(spec.copy(seed = spec.seed + 1000L * variant + 100000L * copy))
  }

  private def named(ds: String, p: Pattern, labelSeed: Int): Query =
    Query(s"$ds/${p.name}/L$labelSeed", ds, p)

  /** `n` consecutive label seeds starting at the variant. `Templates` gives
    * query node q the ((3q + seed) mod k)-th most frequent label, k =
    * max(3, nodes). A single seed can swing a query's cost by 2x: for the
    * six-node templates one seed uses only two labels, and which two depends
    * on seed mod 3. Three consecutive seeds always cover the same three label
    * pairs; [[cycle]] seeds cover every rotation, so the label mix of a pass
    * is the same under every variant.
    */
  def labelSeeds(variant: Int, n: Int = 3): Seq[Int] = variant until variant + n

  /** Number of distinct label rotations of template `id`. */
  def cycle(id: Int): Int = math.max(3, Templates.template(id).numNodes)

  // Each label seed runs on its own copy of em: the cost of the D queries
  // depends on the small graph's SCC structure (one graph's pass time varies
  // by about 15% between variants), and three graphs per pass average it out.
  // The D queries and the H query of HQ4 all reach the cap, so their counts
  // only show that at least `limit` matches exist. The H queries of HQ6, HQ9
  // and HQ17 mostly stay under it (1e4-1e5 matches over thousands to tens of
  // thousands of reach edges): their exact counts catch a RIG that loses
  // reach edges.
  val reachExpand: Workload = Workload("reach-expand",
    datasets = Seq("em.0" -> 0.08, "em.1" -> 0.08, "em.2" -> 0.08), limit = 100000L, rows = false,
    queries = (gs, v) =>
      for {
        (ls, i) <- labelSeeds(v).zipWithIndex
        ds = s"em.$i"
        p <- Seq(2, 3, 4, 15, 18).map(Templates.dQuery(_, gs(ds), ls)) ++
          Seq(4, 6, 9, 17).map(Templates.hQuery(_, gs(ds), ls))
      } yield named(ds, p, ls))

  // The H queries of HQ0/1/2/4/5/7/8/15 nearly all reach the cap; those of
  // HQ6 and HQ9 (1e4-1e5 matches each) stay under it, so a wrong RIG or
  // enumeration changes their exact counts.
  val enumHeavy: Workload = Workload("enum-heavy",
    datasets = Seq("hu" -> 1.0), limit = 4000000L, rows = false,
    queries = (gs, v) =>
      for {
        id <- Seq(0, 1, 2, 4, 5, 7, 8, 15, 6, 9)
        ls <- labelSeeds(v, cycle(id))
      } yield named("hu", Templates.hQuery(id, gs("hu"), ls), ls))

  val selective: Workload = Workload("selective",
    datasets = Seq("db" -> 1.0, "ep" -> 0.25), limit = 100000L, rows = false,
    queries = (gs, v) =>
      for {
        ds <- Seq("db", "ep")
        id <- 0 until 20
        ls <- labelSeeds(v)
      } yield named(ds, Templates.cQuery(id, gs(ds), ls), ls))

  val answerRows: Workload = Workload("answer-rows",
    datasets = Seq("hu" -> 1.0), limit = Long.MaxValue, rows = true,
    queries = (gs, v) =>
      for {
        id <- Seq(6, 9, 13, 16, 17)
        ls <- labelSeeds(v, cycle(id))
      } yield named("hu", Templates.hQuery(id, gs("hu"), ls), ls))

  val all: Seq[Workload] = Seq(reachExpand, enumHeavy, selective, answerRows)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
