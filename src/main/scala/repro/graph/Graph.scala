package repro.graph

import org.roaringbitmap.RoaringBitmap

/** Immutable directed, node-labeled data graph in CSR form (paper §2, Def 2.1).
  *
  * Node ids are dense `0 until numNodes`. Adjacency is stored twice (forward
  * and backward CSR) with neighbor arrays sorted ascending, so membership
  * checks are binary searches and unions/intersections stream in order.
  *
  * The paper's algorithms (simulation, RIG expansion, MJoin counting) and
  * the JM/TM baselines are in-memory and run on the driver over this CSR.
  *
  * @param labels     node id -> label id
  * @param labelNames label id -> label name
  * @param fwdOff     CSR offsets for outgoing edges (length numNodes+1)
  * @param fwdAdj     concatenated sorted out-neighbor lists
  * @param bwdOff     CSR offsets for incoming edges
  * @param bwdAdj     concatenated sorted in-neighbor lists
  */
final class Graph(
    val labels: Array[Int],
    val labelNames: Array[String],
    val fwdOff: Array[Int],
    val fwdAdj: Array[Int],
    val bwdOff: Array[Int],
    val bwdAdj: Array[Int],
) {

  def numNodes: Int = labels.length
  def numEdges: Long = fwdAdj.length.toLong
  def numLabels: Int = labelNames.length

  /** Average degree as reported in the paper's Table 2 (2|E|/|V|). */
  def avgDegree: Double = if (numNodes == 0) 0.0 else 2.0 * numEdges / numNodes

  def outDegree(v: Int): Int = fwdOff(v + 1) - fwdOff(v)
  def inDegree(v: Int): Int = bwdOff(v + 1) - bwdOff(v)

  /** Sorted out-neighbors of `v` (shared backing array — do not mutate). */
  def outNeighbors(v: Int): IndexedSeq[Int] =
    new ArraySlice(fwdAdj, fwdOff(v), fwdOff(v + 1))

  /** Sorted in-neighbors of `v` (shared backing array — do not mutate). */
  def inNeighbors(v: Int): IndexedSeq[Int] =
    new ArraySlice(bwdAdj, bwdOff(v), bwdOff(v + 1))

  /** O(log d) membership test for edge (u, v). */
  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(fwdAdj, fwdOff(u), fwdOff(u + 1), v) >= 0

  /** Inverted lists I_a: label id -> sorted node ids (paper §2). */
  @transient lazy val invertedLists: Array[Array[Int]] = {
    val counts = new Array[Int](numLabels)
    var v = 0
    while (v < numNodes) { counts(labels(v)) += 1; v = v + 1 }
    val out = Array.tabulate(numLabels)(l => new Array[Int](counts(l)))
    val pos = new Array[Int](numLabels)
    v = 0
    while (v < numNodes) {
      val l = labels(v); out(l)(pos(l)) = v; pos(l) += 1; v += 1
    }
    out // node ids are visited ascending, so each list is sorted
  }

  def invertedList(label: Int): Array[Int] =
    if (label < 0 || label >= numLabels) Array.emptyIntArray else invertedLists(label)

  def labelId(name: String): Option[Int] = labelIndex.get(name)

  @transient private lazy val labelIndex: Map[String, Int] =
    labelNames.zipWithIndex.toMap

  /** Inverted list of a label *name* (empty if the graph lacks the label). */
  def invertedListByName(name: String): Array[Int] =
    labelId(name).map(invertedList).getOrElse(Array.emptyIntArray)

  /** Inverted list as a RoaringBitmap (cached — used heavily by simulation). */
  @transient lazy val invertedBitmaps: Array[RoaringBitmap] =
    invertedLists.map(RoaringBitmap.bitmapOf(_: _*))

  def invertedBitmap(label: Int): RoaringBitmap =
    if (label < 0 || label >= numLabels) new RoaringBitmap()
    else invertedBitmaps(label)

  /** All edges as (src, dst) pairs, src-major order. */
  def edgeIterator: Iterator[(Int, Int)] =
    (0 until numNodes).iterator.flatMap(u => outNeighbors(u).iterator.map(v => (u, v)))
}

/** Read-only view over a sub-range of an int array (avoids copying CSR rows). */
private final class ArraySlice(a: Array[Int], from: Int, until: Int)
    extends IndexedSeq[Int] {
  def apply(i: Int): Int = a(from + i)
  def length: Int = until - from
  // The inherited foreach walks a view iterator; the DAG-slice DFS loops call it per component.
  override def foreach[U](f: Int => U): Unit = {
    var i = from
    while (i < until) { f(a(i)); i += 1 }
  }
}

object Graph {

  /** Builds a CSR graph from an edge list. Self-loops and duplicate edges are
    * dropped (the SNAP graphs the paper uses are simple directed graphs).
    */
  def fromEdges(labels: Array[Int], labelNames: Array[String], edges: Iterable[(Int, Int)]): Graph = {
    val n = labels.length
    val packed = edges.iterator.map { case (u, v) =>
      require(0 <= u && u < n && 0 <= v && v < n, s"edge ($u, $v) has an endpoint outside 0..${n - 1}")
      pack(u, v)
    }.toArray
    csr(n, packed, packed.length)(new Graph(labels, labelNames, _, _, _, _))
  }

  /** Edge (u, v) as one long that sorts in (u, v) order, unpacked by [[src]] and [[dst]]; ids must be >= 0. */
  private[graph] def pack(u: Int, v: Int): Long = u.toLong << 32 | v
  private[graph] def src(e: Long): Int = (e >>> 32).toInt
  private[graph] def dst(e: Long): Int = e.toInt

  /** Sorts `edges(0 until len)` and moves its distinct non-loop edges to the front; returns their count. */
  private[graph] def sortUnique(edges: Array[Long], len: Int): Int = {
    java.util.Arrays.sort(edges, 0, len)
    var m = 0
    for (i <- 0 until len) {
      val e = edges(i)
      if (src(e) != dst(e) && (m == 0 || edges(m - 1) != e)) { edges(m) = e; m += 1 }
    }
    m
  }

  /** The one CSR build: `mk(fwdOff, fwdAdj, bwdOff, bwdAdj)` over nodes `0 until n`
    * from the first `len` [[pack]]ed `edges`, after [[sortUnique]]. Forward rows
    * follow the sorted order, backward rows fill by counting.
    */
  private[graph] def csr[T](n: Int, edges: Array[Long], len: Int)(
      mk: (Array[Int], Array[Int], Array[Int], Array[Int]) => T): T = {
    val m = sortUnique(edges, len)
    val fwdOff = new Array[Int](n + 1)
    val bwdOff = new Array[Int](n + 1)
    for (i <- 0 until m) { fwdOff(src(edges(i)) + 1) += 1; bwdOff(dst(edges(i)) + 1) += 1 }
    for (i <- 0 until n) { fwdOff(i + 1) += fwdOff(i); bwdOff(i + 1) += bwdOff(i) }
    val fwdAdj = new Array[Int](m)
    val bwdAdj = new Array[Int](m)
    val bp = bwdOff.clone()
    for (i <- 0 until m) { val v = dst(edges(i)); fwdAdj(i) = v; bwdAdj(bp(v)) = src(edges(i)); bp(v) += 1 }
    mk(fwdOff, fwdAdj, bwdOff, bwdAdj)
  }
}
