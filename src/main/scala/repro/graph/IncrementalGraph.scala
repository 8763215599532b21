package repro.graph

import scala.collection.mutable

/** Single-layer incremental α-RNG graph whose every directed edge records
  * the insertion step at which it appeared (`birth`) and was pruned away
  * (`death`, or `Int.MaxValue` while it is live).
  *
  * Insertion step counts inserted points, so after inserting points with
  * ranks [0, t) the current step is t and an edge is alive at t iff
  * `birth <= t < death`. Replaying the graph "as of step t" reconstructs
  * exactly the graph the incremental build had after inserting the first t
  * points, and the live graph is the graph as of the current `step`. Two
  * consumers:
  *
  *  - **Vamana-style builds** (FilteredVamana / StitchedVamana baselines):
  *    insert in a caller-chosen order with α > 1 and search the live graph.
  *  - **SeRF-style segment graph** (the "2DSegmentGraph" baseline): insert in
  *    ascending attribute order and search as of a step t — SeRF's key
  *    observation that one annotated graph compresses all n half-bounded
  *    range indexes.
  *
  * A prune keeps a subset of the live edges, and an edge is added only at
  * the insertion of its younger endpoint, so it is never re-added: a prune
  * only stamps deaths, and the log holds each edge once.
  */
final class IncrementalGraph(
    val vs: VecStore,
    val m: Int,
    val efConstruction: Int,
    val alpha: Float,
) {
  // Node u's edge log, indexed by id: edge e is log(u)(3e until 3e + 3) =
  // (neighbor, birth, death), for e < logLen(u).
  private val log = Array.fill(vs.n)(Array.emptyIntArray)
  private val logLen = new Array[Int](vs.n)
  private val insertedOrder = mutable.ArrayBuffer.empty[Int]
  private var entryPoint: Int = -1

  def step: Int = insertedOrder.length
  def inserted: Seq[Int] = insertedOrder.toSeq
  def entry: Int = entryPoint

  private def addEdge(u: Int, v: Int): Unit = {
    val i = 3 * logLen(u)
    if (i == log(u).length) log(u) = java.util.Arrays.copyOf(log(u), math.max(3 * m, 2 * i))
    val a = log(u)
    a(i) = v; a(i + 1) = step; a(i + 2) = Int.MaxValue
    logLen(u) += 1
  }

  /** Write u's neighbors alive at step t into `out`, -1-terminated. */
  private def fillAsOf(u: Int, t: Int, out: Array[Int]): Array[Int] = {
    val a = log(u)
    var d = 0
    var i = 0
    while (i < 3 * logLen(u)) {
      if (a(i + 1) <= t && t < a(i + 2)) { out(d) = a(i); d += 1 }
      i += 3
    }
    out(d) = -1
    out
  }

  /** Insert one point; must not have been inserted before. */
  def insert(u: Int): Unit = {
    if (entryPoint < 0) { entryPoint = u; insertedOrder += u; return }
    val found = search(vs.vector(u), Seq(entryPoint), efConstruction, efConstruction)
    val cands = new SortedList(found.length)
    for (f <- found if f.id != u) cands.insert(f.dist, f.id)
    val sel = RngPrune.prune(vs, cands, m, alpha)
    insertedOrder += u
    sel.foreach(addEdge(u, _))
    // Reverse edges; a neighbor over m live edges re-prunes them.
    for (c <- sel) {
      addEdge(c, u)
      val live = neighbors(c)
      if (live.length > m) {
        cands.reset(live.length)
        live.foreach(x => cands.insert(vs.dist2(c, x), x))
        val kept = RngPrune.prune(vs, cands, m, alpha)
        val a = log(c)
        var i = 0
        while (i < 3 * logLen(c)) {
          if (a(i + 2) == Int.MaxValue && !kept.contains(a(i))) a(i + 2) = step
          i += 3
        }
      }
    }
  }

  /** Adjacency of u as of insertion step t, in the order edges were added. */
  def neighborsAsOf(u: Int, t: Int): Array[Int] = {
    val out = fillAsOf(u, t, new Array[Int](logLen(u) + 1))
    out.take(out.indexOf(-1))
  }

  /** Live adjacency of u: the graph as of the current step. */
  def neighbors(u: Int): Array[Int] = neighborsAsOf(u, step)

  /** Search the graph as of insertion step t — by default the live graph
    * (Vamana-style use); an earlier t searches a prefix (segment-graph use).
    * At most m edges of a node are alive at any step, so one (m + 1)-slot
    * scratch buffer serves every expansion.
    */
  def search(q: Array[Float], entries: Seq[Int], k: Int, ef: Int, t: Int = step,
             visit: Int => Boolean = _ => true,
             admit: Int => Boolean = BeamSearch.AdmitAll): Array[Candidate] = {
    val scratch = new Array[Int](m + 1)
    BeamSearch.search(q, (i: Int) => vs.dist2(i, q), entries, math.max(ef, k), k,
      neighbors = (x: Int) => fillAsOf(x, t, scratch), visit = visit, admit = admit)
  }

  /** Edges in the log, live and dead — the compressed representation SeRF
    * stores.
    */
  def storedEdges: Long = logLen.iterator.map(_.toLong).sum

  /** Edges alive at the current step. */
  def liveEdges: Long = log.indices.iterator.map(neighbors(_).length.toLong).sum
}

object IncrementalGraph {

  /** Build by inserting `order` into an empty graph. */
  def build(vs: VecStore, order: Seq[Int], m: Int, efConstruction: Int,
            alpha: Float = 1.0f): IncrementalGraph = {
    val g = new IncrementalGraph(vs, m, efConstruction, alpha)
    order.foreach(g.insert)
    g
  }
}
