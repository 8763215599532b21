package repro.graph

/** Exact top-k search by linear scan — the Pre-filtering substrate and the
  * reference against which graph methods are validated in unit tests.
  *
  * Ties are broken by ascending id everywhere in this repo so that exact and
  * approximate methods are comparable deterministically.
  */
object BruteForce {

  /** Exact top-k over ids in [lo, hi] (inclusive) that satisfy `pred`.
    * Returns candidates sorted ascending by (dist, id); size <= k.
    */
  def topK(vs: VecStore, q: Array[Float], lo: Int, hi: Int, k: Int,
           pred: Int => Boolean = _ => true): Array[Candidate] = {
    require(k >= 1, s"k must be >= 1, got $k")
    val best = new SortedList(k)
    var i = math.max(lo, 0)
    val end = math.min(hi, vs.n - 1)
    while (i <= end) {
      if (pred(i)) best.insert(vs.dist2(i, q), i)
      i += 1
    }
    best.take(k)
  }

  /** Exact top-k ids only. */
  def topKIds(vs: VecStore, q: Array[Float], lo: Int, hi: Int, k: Int,
              pred: Int => Boolean = _ => true): Array[Int] =
    topK(vs, q, lo, hi, k, pred).map(_.id)

  /** Merge per-part results into the global top-k, ascending by (dist, id).
    * A (dist, id) pair offered by several parts is kept once; the callers'
    * parts — partitions, buckets, canonical segments or rank blocks — hold
    * disjoint ids anyway.
    */
  def mergeTopK(lists: Seq[Array[Candidate]], k: Int): Array[Candidate] = {
    val best = new SortedList(k)
    for (l <- lists; c <- l) if (!best.contains(c.dist, c.id)) best.insert(c.dist, c.id)
    best.take(k)
  }
}
