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
  * The beam is the set of the best `beam` *visited* nodes, kept as one
  * [[SortedList]]: sorted by (distance, id), with an expanded flag per
  * entry (DiskANN's candidate list, Subramanya et al., NeurIPS 2019). The
  * search expands the closest unexpanded beam member until none is left,
  * which is the standard filtered-search stop: the nearest unexpanded
  * candidate is farther than the beam's worst member and the beam is full.
  * Results are the admitted nodes seen, best-first, top-k; with the default
  * `admit` ([[AdmitAll]]) and k ≤ beam they are the head of the beam itself.
  *
  * Bookkeeping allocates nothing per search but the k returned candidates:
  * the beam and the admitted set are sorted lists on primitive arrays,
  * and the visited set is an [[EpochMarks]] indexed by id (ids are dense
  * ranks). They live in one `Scratch` per thread — hnswlib's visited-list
  * pool — so concurrent builder tasks never share one. No closure may start
  * a search on its own thread: that search would need the running one's
  * scratch, so it throws `IllegalStateException` instead.
  */
object BeamSearch {

  /** The default `admit`: every node may be a result. Passing this value
    * (compared by reference) lets the search read results off the beam; any
    * other always-true function gives the same results through the second
    * list.
    */
  val AdmitAll: Int => Boolean = _ => true

  // `q` is unread (`dist` already closes over the query) but stays while the
  // benchmark's query trace pins this signature; dropping it is ROADMAP item 1.
  def search(
      @annotation.unused q: Array[Float],
      dist: Int => Float,
      entries: Seq[Int],
      beam: Int,
      k: Int,
      neighbors: Int => Array[Int],
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = AdmitAll,
      stats: SearchStats = null,
  ): Array[Candidate] = {
    require(beam >= 1, s"beam must be >= 1, got $beam")
    val s = scratch.get()
    if (s.busy) throw new IllegalStateException("a search was started from inside another search's closure")
    s.busy = true
    try s.search(dist, entries, beam, k, neighbors, visit, admit, stats)
    finally s.busy = false
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Beam, admitted set and visited set of a thread's running search. */
  private final class Scratch {
    var busy = false
    // The best `beam` visited nodes.
    private val beamList = new SortedList
    // The best k admitted nodes (flags unused), when not the beam.
    private val admitted = new SortedList
    private val visited = new EpochMarks

    def search(dist: Int => Float, entries: Seq[Int], beam: Int, k: Int,
               neighbors: Int => Array[Int], visit: Int => Boolean,
               admit: Int => Boolean, stats: SearchStats): Array[Candidate] = {
      visited.clear()
      beamList.reset(beam)
      // With every node admitted and k <= beam, the admitted set is the beam.
      val results = if ((admit eq AdmitAll) && k <= beam) beamList else admitted
      // Only the first k admitted nodes are returned, and the list never
      // steers the search.
      if (results ne beamList) admitted.reset(k)

      def offer(id: Int): Unit = {
        val d = dist(id)
        if (stats != null) stats.distComputations += 1
        beamList.insert(d, id)
        if ((results ne beamList) && admit(id)) admitted.insert(d, id)
      }

      val it = entries.iterator
      while (it.hasNext) {
        val e = it.next()
        if (visit(e) && visited.add(e)) offer(e)
      }

      while (beamList.hasUnexpanded) {
        val cur = beamList.expandNext()
        if (stats != null) stats.nodesExpanded += 1
        val nbrs = neighbors(cur)
        var j = 0
        while (j < nbrs.length && nbrs(j) >= 0) {
          val v = nbrs(j)
          if (stats != null) stats.edgesScanned += 1
          // `visit` runs only on unvisited nodes: MultiAttr's probabilistic filter draws on every call.
          if (!visited.contains(v) && visit(v) && visited.add(v)) offer(v)
          j += 1
        }
      }

      results.take(k)
    }
  }
}
