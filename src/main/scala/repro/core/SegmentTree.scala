package repro.core

import scala.collection.mutable

/** Segment-tree geometry over ranks [0, n-1] (Section 3.2.1).
  *
  * The root is [0, n-1]; a node [l, r] with l < r splits into
  * [l, mid] and [mid+1, r] with mid = (l + r) / 2 (floor). Leaves have
  * l == r. Layer 0 is the root; a rank appears in exactly one segment per
  * layer until its branch bottoms out. Arbitrary n is supported (the paper
  * assumes a power of two only for presentation).
  */
object SegmentTree {

  def mid(l: Int, r: Int): Int = (l + r) >>> 1

  /** Number of layers (root layer 0 .. deepest leaf layer). */
  def depth(n: Int): Int = {
    require(n >= 1)
    var d = 1
    var len = n
    while (len > 1) { len = (len + 1) / 2; d += 1 }
    d
  }

  /** Segments exactly at layer `lay`, left to right; a branch that bottomed
    * out above `lay` contributes nothing. For `lay <= depth(n) - 2` no branch
    * has bottomed out yet, so the segments partition [0, n). Both index
    * builders walk the tree bottom-up through this one listing.
    */
  def segmentsAtLayer(n: Int, lay: Int): Seq[(Int, Int)] = {
    val out = mutable.ArrayBuffer.empty[(Int, Int)]
    def go(l: Int, r: Int, d: Int): Unit = {
      if (d == lay) out += ((l, r))
      else if (l < r) {
        val m = mid(l, r)
        go(l, m, d + 1)
        go(m + 1, r, d + 1)
      }
    }
    go(0, n - 1, 0)
    out.toSeq
  }

  /** Length of [l, r] ∩ [ql, qr] (0 if disjoint). */
  def intersectLen(l: Int, r: Int, ql: Int, qr: Int): Int =
    math.max(0, math.min(r, qr) - math.max(l, ql) + 1)

  /** Canonical decomposition of [ql, qr] into maximal disjoint tree segments
    * — the classical range-query decomposition, used by the BasicSearch
    * ablation baseline. Returns (layer, l, r) triples, O(log n) of them,
    * whose union is exactly [ql, qr].
    */
  def decompose(n: Int, ql: Int, qr: Int): Seq[(Int, Int, Int)] = {
    require(0 <= ql && ql <= qr && qr < n, s"bad range [$ql,$qr] for n=$n")
    val out = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    def go(l: Int, r: Int, lay: Int): Unit = {
      if (qr < l || r < ql) ()
      else if (ql <= l && r <= qr) out += ((lay, l, r))
      else {
        val m = mid(l, r)
        go(l, m, lay + 1)
        go(m + 1, r, lay + 1)
      }
    }
    go(0, n - 1, 0)
    out.toSeq
  }
}
