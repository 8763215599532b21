package repro.baselines

import repro.graph.{Candidate, Hnsw, VecStore}
import scala.collection.mutable

/** SuperPostfiltering (Engels et al., discussed in Sections 2.2/3.4): preset
  * overlapping windows — per level i, windows of length n/2ⁱ at stride
  * length/β (β = 2 gives half-overlapping windows) — and build a graph
  * index for each. A query takes the *smallest* window covering its range
  * (length ≤ 2βs for a range of length s) and runs Post-filtering on that
  * window's index, so up to (2β − 1)·s of the visited objects can be
  * out-of-range — the inherent Post-filtering issue the paper contrasts
  * against. Memory is ~2n indexed points per level, roughly 2× iRangeGraph's
  * n per layer, matching Table 2's ordering. β = 2 is the paper's
  * recommended parameter. Levels stop below windows of 64 objects, but
  * level 0 is always built, so a set of fewer than 64 objects has one
  * window.
  */
final class SuperPostFiltering(val vs: VecStore, m: Int, efConstruction: Int) {
  /** (lo, hi, index) per window, all levels. */
  val windows: Array[(Int, Int, Hnsw)] = {
    val n = vs.n
    val out = mutable.ArrayBuffer.empty[(Int, Int, Hnsw)]
    var len = n
    do {
      val stride = math.max(1, len / SuperPostFiltering.Beta)
      var lo = 0
      var more = true
      while (more) {
        val hi = math.min(n - 1, lo + len - 1)
        out += ((lo, hi, Hnsw.build(vs, lo, hi, m, efConstruction)))
        if (hi == n - 1) more = false else lo += stride
      }
      len = len / 2
    } while (len >= SuperPostFiltering.MinWindow)
    out.toArray
  }

  /** Smallest window covering [L, R] (always exists: the level-0 window is
    * the full range).
    */
  def coveringWindow(L: Int, R: Int): (Int, Int, Hnsw) =
    windows
      .filter { case (lo, hi, _) => lo <= L && R <= hi }
      .minBy { case (lo, hi, _) => (hi - lo, lo) }

  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    val (lo, hi, h) = coveringWindow(L, R)
    if (hi - lo + 1 <= 2 * k) PreFiltering.search(vs, q, L, R, k)
    else PostFiltering.search(h, q, L, R, k, beam)
  }

  def sizeBytes: Long = windows.map(_._3.sizeBytes).sum
}

object SuperPostFiltering {
  /** Window overlap factor β: windows of a level start len/β apart. */
  private val Beta = 2

  /** The shortest window length that gets a level. */
  private val MinWindow = 64
}
