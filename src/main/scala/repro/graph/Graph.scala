package repro.graph

import org.roaringbitmap.RoaringBitmap

/** Immutable directed, node-labeled data graph in CSR form (paper §2, Def 2.1).
  *
  * Node ids are dense `0 until numNodes`. Adjacency is stored twice (forward
  * and backward CSR) with neighbor arrays sorted ascending, so membership
  * checks are binary searches and unions/intersections stream in order.
  *
  * The paper's algorithms (simulation, RIG expansion, MJoin counting) are
  * in-memory and run on the driver over this CSR. It is also `Serializable`
  * and small enough to broadcast to the Spark paths that still read it: JM's
  * edge-match relations and TM's distributed enumeration.
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
) extends Serializable {

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
    extends IndexedSeq[Int] with Serializable {
  def apply(i: Int): Int = a(from + i)
  def length: Int = until - from
}

object Graph {

  /** Builds a CSR graph from an edge list. Self-loops and duplicate edges are
    * dropped (the SNAP graphs the paper uses are simple directed graphs).
    */
  def fromEdges(labels: Array[Int], labelNames: Array[String], edges: Iterable[(Int, Int)]): Graph = {
    val n = labels.length
    val cleaned = edges.iterator.filter { case (u, v) => u != v }.toArray.distinct
    val outCnt = new Array[Int](n + 1)
    val inCnt = new Array[Int](n + 1)
    cleaned.foreach { case (u, v) => outCnt(u + 1) += 1; inCnt(v + 1) += 1 }
    var i = 0
    while (i < n) { outCnt(i + 1) += outCnt(i); inCnt(i + 1) += inCnt(i); i += 1 }
    val fwd = new Array[Int](cleaned.length)
    val bwd = new Array[Int](cleaned.length)
    val fp = outCnt.clone(); val bp = inCnt.clone()
    cleaned.foreach { case (u, v) =>
      fwd(fp(u)) = v; fp(u) += 1
      bwd(bp(v)) = u; bp(v) += 1
    }
    i = 0
    while (i < n) {
      java.util.Arrays.sort(fwd, outCnt(i), outCnt(i + 1))
      java.util.Arrays.sort(bwd, inCnt(i), inCnt(i + 1))
      i += 1
    }
    new Graph(labels, labelNames, outCnt, fwd, inCnt, bwd)
  }
}
