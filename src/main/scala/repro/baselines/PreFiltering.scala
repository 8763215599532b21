package repro.baselines

import repro.graph.{BruteForce, Candidate, VecStore}

/** Pre-filtering (Section 2.2): binary search has already reduced the raw
  * range to ranks [L, R] (the rank mapping makes that step free here), so
  * the strategy is an exact linear scan over the in-range objects. Always
  * recall 1; cost grows linearly with range length — optimal for tiny
  * ranges, degenerate for unselective queries.
  */
object PreFiltering {

  def search(vs: VecStore, q: Array[Float], L: Int, R: Int, k: Int,
             pred: Int => Boolean = _ => true): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    BruteForce.topK(vs, q, L, R, k, pred)
  }
}
