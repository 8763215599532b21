package repro

import repro.graph.{BruteForce, SortedList, VecStore}

/** Exact, slow reference answers that the specs check the fast paths against:
  * the O(s³) RNG for the graph builders and the local top-k scan for the
  * Spark ground truth.
  */
object ExactOracles {

  /** Exact directed RNG over ids [lo, hi] (inclusive), O(s³) — reference
    * implementation for validating approximate builders on tiny segments.
    * Edge (u, v) is kept iff no u' in the segment has
    * δ(u, u') < δ(u, v) and δ(v, u') < δ(u, v).
    * Ties broken conservatively (strict inequality), matching `RngPrune.prune`
    * at α = 1 with a full candidate set and m = ∞.
    */
  def exactRng(vs: VecStore, lo: Int, hi: Int): Map[Int, Array[Int]] = {
    val ids = (lo to hi).toArray
    ids.map { u =>
      val kept = ids.filter(_ != u).filter { v =>
        val duv = vs.dist2(u, v)
        !ids.exists(w => w != u && w != v &&
          vs.dist2(u, w) < duv && vs.dist2(v, w) < duv)
      }
      val order = new SortedList(kept.length)
      kept.foreach(v => order.insert(vs.dist2(u, v), v))
      u -> Array.tabulate(kept.length)(order.id)
    }.toMap
  }

  /** Exact top-k ids per query over ranks [L, R] (and an optional extra
    * predicate for the multi-attribute case), sorted by (dist, id).
    */
  def groundTruth(vs: VecStore, queries: Array[Array[Float]],
                  ranges: Array[(Int, Int)], k: Int,
                  pred: (Int, Int) => Boolean = (_, _) => true): Array[Array[Int]] =
    queries.indices.toArray.map { qid =>
      val (l, r) = ranges(qid)
      BruteForce.topKIds(vs, queries(qid), l, r, k, i => pred(qid, i))
    }
}
