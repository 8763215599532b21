package repro.graph

/** A scored search result: object id + squared distance to the query. */
final case class Candidate(id: Int, dist: Float)

/** Mutable per-query counters — the paper's auxiliary metric "number of
  * distance computations" plus edge-selection work, used by tests and benches.
  */
final class SearchStats {
  var distComputations: Long = 0L
  var nodesExpanded: Long = 0L
  var edgesScanned: Long = 0L
  def reset(): Unit = { distComputations = 0; nodesExpanded = 0; edgesScanned = 0 }
}

/** Greedy beam search (Section 2.1) over an arbitrary adjacency function.
  *
  * This single kernel powers every graph method in the repo; methods differ
  * only in `neighbors` (which graph / which on-the-fly edge selection),
  * `visit` (may this node be *traversed*, i.e., entered into the beam —
  * In-filtering restricts this) and `admit` (may this node appear in the
  * *result* — Post-filtering restricts this).
  *
  * The `neighbors` function returns the adjacency of the expanded node; a
  * negative id terminates the list early, which lets callers reuse a padded
  * scratch buffer across expansions (the on-the-fly edge selection does).
  *
  * Termination follows the standard filtered-search convention: the beam is
  * the set of best *visited* nodes; the search stops when the nearest
  * unexpanded candidate is farther than the beam's worst member and the beam
  * is full. Results are the admitted nodes seen, best-first, top-k.
  *
  * Bookkeeping allocates nothing per search but the k returned candidates:
  * the three heaps are binary heaps on primitive (distance, id) arrays, and
  * the visited set is an epoch-stamped `Array[Int]` indexed by id (ids are
  * dense ranks). Both live in a `Scratch` taken from a per-thread pool —
  * hnswlib's visited-list pool — so concurrent builder tasks never share
  * one, and a search started from inside another's closures gets its own.
  */
object BeamSearch {

  def search(
      q: Array[Float],
      dist: Int => Float,
      entries: Seq[Int],
      beam: Int,
      k: Int,
      neighbors: Int => Array[Int],
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = _ => true,
      stats: SearchStats = null,
  ): Array[Candidate] = {
    require(beam >= 1, s"beam must be >= 1, got $beam")
    var s = pool.get()
    while (s.busy) {
      if (s.next == null) s.next = new Scratch
      s = s.next
    }
    s.busy = true
    try s.search(dist, entries, beam, k, neighbors, visit, admit, stats)
    finally s.busy = false
  }

  /** Ascending (distance, id) — the order of `BruteForce.candidateOrdering`. */
  private def less(da: Float, ia: Int, db: Float, ib: Int): Boolean = {
    val c = java.lang.Float.compare(da, db)
    c < 0 || (c == 0 && ia < ib)
  }

  /** Per-thread chain of scratches; a search takes the first idle one. */
  private val pool = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Binary heap of (distance, id) pairs on parallel primitive arrays, with
    * the greatest pair on top if `maxOnTop`, else the least.
    */
  private final class Heap(maxOnTop: Boolean) {
    private var ds = new Array[Float](64)
    private var ids = new Array[Int](64)
    var size = 0

    def topDist: Float = ds(0)
    def topId: Int = ids(0)

    private def above(da: Float, ia: Int, db: Float, ib: Int): Boolean =
      if (maxOnTop) less(db, ib, da, ia) else less(da, ia, db, ib)

    def push(d: Float, id: Int): Unit = {
      if (size == ds.length) {
        ds = java.util.Arrays.copyOf(ds, 2 * size)
        ids = java.util.Arrays.copyOf(ids, 2 * size)
      }
      var i = size
      size += 1
      var up = true
      while (up && i > 0) {
        val p = (i - 1) >>> 1
        if (above(d, id, ds(p), ids(p))) { ds(i) = ds(p); ids(i) = ids(p); i = p }
        else up = false
      }
      ds(i) = d
      ids(i) = id
    }

    def pop(): Unit = {
      size -= 1
      if (size > 0) replaceTop(ds(size), ids(size))
    }

    def replaceTop(d: Float, id: Int): Unit = {
      var i = 0
      var down = true
      while (down && 2 * i + 1 < size) {
        var c = 2 * i + 1
        if (c + 1 < size && above(ds(c + 1), ids(c + 1), ds(c), ids(c))) c += 1
        if (above(ds(c), ids(c), d, id)) { ds(i) = ds(c); ids(i) = ids(c); i = c }
        else down = false
      }
      ds(i) = d
      ids(i) = id
    }
  }

  /** Heaps and visited set of one running search. */
  private final class Scratch {
    var busy = false
    var next: Scratch = null
    // Min-heap of unexpanded candidates.
    private val frontier = new Heap(maxOnTop = false)
    // Max-heap of the best `beam` visited nodes.
    private val beamHeap = new Heap(maxOnTop = true)
    // Max-heap of the best max(k, beam) admitted nodes.
    private val admitted = new Heap(maxOnTop = true)
    // Id i is visited in this search iff stamp(i) == epoch.
    private var stamp = new Array[Int](1024)
    private var epoch = 0

    private def visited(id: Int): Boolean = id < stamp.length && stamp(id) == epoch

    /** Marks `id` visited; false if it already was. */
    private def markVisited(id: Int): Boolean = {
      if (id >= stamp.length)
        stamp = java.util.Arrays.copyOf(stamp, math.max(id + 1, 2 * stamp.length))
      if (stamp(id) == epoch) false
      else { stamp(id) = epoch; true }
    }

    private def offer(id: Int, dist: Int => Float, admit: Int => Boolean,
                      stats: SearchStats, beam: Int, admitCap: Int): Unit = {
      val d = dist(id)
      if (stats != null) stats.distComputations += 1
      if (beamHeap.size < beam) {
        frontier.push(d, id)
        beamHeap.push(d, id)
      } else if (less(d, id, beamHeap.topDist, beamHeap.topId)) {
        frontier.push(d, id)
        beamHeap.replaceTop(d, id)
      }
      if (admit(id)) {
        if (admitted.size < admitCap) admitted.push(d, id)
        else if (less(d, id, admitted.topDist, admitted.topId)) admitted.replaceTop(d, id)
      }
    }

    def search(dist: Int => Float, entries: Seq[Int], beam: Int, k: Int,
               neighbors: Int => Array[Int], visit: Int => Boolean,
               admit: Int => Boolean, stats: SearchStats): Array[Candidate] = {
      epoch += 1
      if (epoch == 0) { java.util.Arrays.fill(stamp, 0); epoch = 1 }
      frontier.size = 0
      beamHeap.size = 0
      admitted.size = 0
      val admitCap = math.max(k, beam)

      val it = entries.iterator
      while (it.hasNext) {
        val e = it.next()
        if (visit(e) && markVisited(e)) offer(e, dist, admit, stats, beam, admitCap)
      }

      var done = false
      while (!done && frontier.size > 0) {
        val cd = frontier.topDist
        val cur = frontier.topId
        frontier.pop()
        // Stop when the best unexpanded node can no longer improve the beam.
        if (beamHeap.size >= beam && less(beamHeap.topDist, beamHeap.topId, cd, cur)) done = true
        else {
          if (stats != null) stats.nodesExpanded += 1
          val nbrs = neighbors(cur)
          var j = 0
          while (j < nbrs.length && nbrs(j) >= 0) {
            val v = nbrs(j)
            if (stats != null) stats.edgesScanned += 1
            if (!visited(v) && visit(v)) {
              markVisited(v)
              offer(v, dist, admit, stats, beam, admitCap)
            }
            j += 1
          }
        }
      }

      val out = new Array[Candidate](math.max(0, math.min(k, admitted.size)))
      while (admitted.size > out.length) admitted.pop()
      var i = out.length - 1
      while (i >= 0) {
        out(i) = Candidate(admitted.topId, admitted.topDist)
        admitted.pop()
        i -= 1
      }
      out
    }
  }
}
