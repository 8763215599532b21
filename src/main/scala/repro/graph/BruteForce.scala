package repro.graph

import scala.collection.mutable

/** Exact top-k search by linear scan — the Pre-filtering substrate and the
  * reference against which graph methods are validated in unit tests.
  *
  * Ties are broken by ascending id everywhere in this repo so that exact and
  * approximate methods are comparable deterministically.
  */
object BruteForce {

  /** Candidate ordering: ascending (dist, id), distances by
    * `java.lang.Float.compare` (the order `Ordering.by((c.dist, c.id))` gives,
    * without a tuple per comparison).
    */
  val candidateOrdering: Ordering[Candidate] = new Ordering[Candidate] {
    def compare(a: Candidate, b: Candidate): Int = {
      val c = java.lang.Float.compare(a.dist, b.dist)
      if (c != 0) c else Integer.compare(a.id, b.id)
    }
  }

  /** Exact top-k over ids in [lo, hi] (inclusive) that satisfy `pred`.
    * Returns candidates sorted ascending by (dist, id); size <= k.
    */
  def topK(vs: VecStore, q: Array[Float], lo: Int, hi: Int, k: Int,
           pred: Int => Boolean = _ => true): Array[Candidate] = {
    require(k >= 1, s"k must be >= 1, got $k")
    val best = new SortedList
    best.reset(k)
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

  /** Merge several candidate lists (each sorted asc) into global top-k. */
  def mergeTopK(lists: Seq[Array[Candidate]], k: Int): Array[Candidate] = {
    val seen = mutable.HashSet.empty[Int]
    val all = mutable.ArrayBuffer.empty[Candidate]
    for (l <- lists; c <- l) if (seen.add(c.id)) all += c
    all.sorted(candidateOrdering).take(k).toArray
  }
}
