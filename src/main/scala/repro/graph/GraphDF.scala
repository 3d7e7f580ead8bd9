package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame views of a [[Graph]] and the reverse conversion.
  *
  * The public query API of every matcher in this repo is DataFrame-first
  * (`nodes(id, label)`, `edges(src, dst)` in; answer DataFrame out); the CSR
  * image is the driver-side in-memory form the paper's algorithms run on.
  */
object GraphDF {

  // Both frames parallelize driver arrays, so a task ships only its slice.
  def nodesDF(spark: SparkSession, g: Graph): DataFrame = {
    import spark.implicits._
    val names = g.labelNames
    spark.sparkContext.parallelize(g.labels.toIndexedSeq.zipWithIndex)
      .map { case (l, v) => (v.toLong, names(l)) }
      .toDF("id", "label")
  }

  def edgesDF(spark: SparkSession, g: Graph): DataFrame = {
    import spark.implicits._
    val packed = new Array[Long](g.fwdAdj.length)
    for (u <- 0 until g.numNodes; k <- g.fwdOff(u) until g.fwdOff(u + 1)) packed(k) = Graph.pack(u, g.fwdAdj(k))
    spark.sparkContext.parallelize(packed.toIndexedSeq)
      .map(e => (Graph.src(e).toLong, Graph.dst(e).toLong))
      .toDF("src", "dst")
  }

  /** Builds the CSR image from `nodes(id, label)` / `edges(src, dst)`.
    * Node ids must be dense 0..n-1 longs (use [[nodesDF]]-shaped input), and
    * every edge endpoint one of them.
    */
  def fromDF(nodes: DataFrame, edges: DataFrame): Graph = {
    val rows = nodes.select(col("id").cast("long"), col("label").cast("string")).collect()
    val n = rows.length
    // Checked as a long: narrowing first would wrap an id of 2^32 onto node 0.
    def id(x: Long): Int = {
      require(0 <= x && x < n, s"node id $x is outside 0..${n - 1}")
      x.toInt
    }
    val nodeRows = rows.map(r => (id(r.getLong(0)), r.getString(1)))
    require(nodeRows.map(_._1).distinct.length == n, "node ids must be dense 0..n-1")
    val labelNames = nodeRows.map(_._2).distinct.sorted
    val labelIdx = labelNames.zipWithIndex.toMap
    val labels = new Array[Int](n)
    nodeRows.foreach { case (v, l) => labels(v) = labelIdx(l) }
    val packed = edges.select(col("src").cast("long"), col("dst").cast("long"))
      .collect().map(r => Graph.pack(id(r.getLong(0)), id(r.getLong(1))))
    Graph.csr(n, packed, packed.length)(new Graph(labels, labelNames, _, _, _, _))
  }
}
