package repro.graph

/** Strongly-connected-component condensation of a [[Graph]].
  *
  * Reachability indexes (BFL, intervals) operate on the condensation DAG:
  * within an SCC every node reaches every other, across SCCs reachability is
  * the DAG's. Components are numbered in **reverse topological order of
  * discovery inverted to a forward topological order**: `comp(u) < comp(v)`
  * implies v does not reach u across components — i.e. component ids are a
  * topological order of the condensation DAG.
  */
final class Condensation(
    /** node id -> component id (component ids are topologically ordered). */
    val comp: Array[Int],
    /** number of components. */
    val numComps: Int,
    /** component -> size (number of member nodes). */
    val compSize: Array[Int],
    /** condensation DAG, forward CSR over component ids (deduplicated). */
    val dagOff: Array[Int],
    val dagAdj: Array[Int],
    /** condensation DAG, backward CSR. */
    val dagBwdOff: Array[Int],
    val dagBwdAdj: Array[Int],
) {

  /** True iff the component contains a directed cycle (size >= 2; the input
    * graphs carry no self-loops, see [[Graph.fromEdges]]).
    */
  def isCyclic(c: Int): Boolean = compSize(c) >= 2

  // CSR rows as views over the backing arrays (do not mutate).
  def dagChildren(c: Int): IndexedSeq[Int] = new ArraySlice(dagAdj, dagOff(c), dagOff(c + 1))
  def dagParents(c: Int): IndexedSeq[Int] = new ArraySlice(dagBwdAdj, dagBwdOff(c), dagBwdOff(c + 1))
}

object Condensation {

  /** Iterative Tarjan SCC (explicit stack — the data graphs reach 10^6 nodes,
    * far beyond JVM recursion depth).
    */
  def apply(g: Graph): Condensation = {
    val n = g.numNodes
    val index = Array.fill(n)(-1)
    val lowlink = new Array[Int](n)
    val onStack = new Array[Boolean](n)
    val stack = new Array[Int](n); var sp = 0 // Tarjan's node stack and its size
    var nextIndex = 0
    var compCount = 0
    val compRaw = Array.fill(n)(-1)

    // Explicit DFS state: node + position in its adjacency row.
    val dfsNode = new Array[Int](n + 1)
    val dfsEdge = new Array[Int](n + 1)

    var root = 0
    while (root < n) {
      if (index(root) == -1) {
        var top = 0
        dfsNode(0) = root; dfsEdge(0) = g.fwdOff(root)
        index(root) = nextIndex; lowlink(root) = nextIndex; nextIndex += 1
        stack(sp) = root; sp += 1; onStack(root) = true
        while (top >= 0) {
          val u = dfsNode(top)
          if (dfsEdge(top) < g.fwdOff(u + 1)) {
            val v = g.fwdAdj(dfsEdge(top)); dfsEdge(top) += 1
            if (index(v) == -1) {
              index(v) = nextIndex; lowlink(v) = nextIndex; nextIndex += 1
              stack(sp) = v; sp += 1; onStack(v) = true
              top += 1; dfsNode(top) = v; dfsEdge(top) = g.fwdOff(v)
            } else if (onStack(v) && index(v) < lowlink(u)) {
              lowlink(u) = index(v)
            }
          } else {
            if (lowlink(u) == index(u)) {
              var w = -1
              while (w != u) {
                sp -= 1; w = stack(sp); onStack(w) = false
                compRaw(w) = compCount
              }
              compCount += 1
            }
            top -= 1
            if (top >= 0) {
              val p = dfsNode(top)
              if (lowlink(u) < lowlink(p)) lowlink(p) = lowlink(u)
            }
          }
        }
      }
      root += 1
    }

    // Tarjan emits components in *reverse* topological order; flip ids so that
    // component ids form a forward topological order of the condensation DAG.
    val comp = new Array[Int](n)
    var i = 0
    while (i < n) { comp(i) = compCount - 1 - compRaw(i); i += 1 }

    val compSize = new Array[Int](compCount)
    i = 0
    while (i < n) { compSize(comp(i)) += 1; i += 1 }

    // Condensation DAG: every graph edge as a component pair. An edge inside a
    // component becomes a self-loop, which the CSR build drops with repeats.
    val dagEdges = new Array[Long](g.fwdAdj.length)
    for (u <- 0 until n; k <- g.fwdOff(u) until g.fwdOff(u + 1))
      dagEdges(k) = Graph.pack(comp(u), comp(g.fwdAdj(k)))
    Graph.csr(compCount, dagEdges, dagEdges.length)(new Condensation(comp, compCount, compSize, _, _, _, _))
  }
}
