package repro.graph

/** The RNG pruning rule (Definition 2.1) and its α-generalization
  * (DiskANN's RobustPrune; α = 1 is exactly RNG pruning).
  *
  * Given candidates for node u sorted by ascending distance to u, a kept
  * candidate s prunes a later candidate c iff
  * `α · δ(s, c) < δ(u, c)` — s is closer to c than u is (scaled by α) while
  * also being closer to u (guaranteed by the sort order).
  */
object RngPrune {

  /** Prune `candidates` (distinct ids, each with its distance to u) down to
    * at most `m` diversified neighbors, reading the list front to back as
    * DiskANN's RobustPrune and hnswlib's heuristic do. Returns the kept ids
    * in ascending (dist, id) order; distances between candidates come from
    * `vs`.
    */
  private[repro] def prune(vs: VecStore, candidates: SortedList, m: Int,
                           alpha: Float = 1.0f): Array[Int] = {
    val kept = new Array[Int](math.min(m, candidates.size))
    var n = 0
    var i = 0
    while (i < candidates.size && n < m) {
      val c = candidates.id(i)
      var pruned = false
      var j = 0
      while (!pruned && j < n) {
        if (alpha * vs.dist2(kept(j), c) < candidates.dist(i)) pruned = true
        j += 1
      }
      if (!pruned) { kept(n) = c; n += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(kept, n)
  }
}
