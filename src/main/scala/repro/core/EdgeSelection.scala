package repro.core

import repro.graph.EpochMarks

/** Algorithm 1 — on-the-fly edge selection for the dedicated graph.
  *
  * For a node u and query range [L, R] (ranks, inclusive), walk u's branch
  * of the segment tree top-down, appending u's *in-range* neighbors from
  * each visited layer's elemental graph until m edges are collected, a
  * segment fully covered by the query range is consumed (any edge pruned
  * there is pruned by an in-range object, so deeper layers add nothing
  * RNG-valid), or the branch bottoms out.
  *
  * The skipping rule: when the child containing u has the same intersection
  * with [L, R] as the current segment, the current layer's edges have the
  * same robustness against in-range pruning as the child's, so the layer is
  * skipped without selecting — this is what turns O(m log n) into amortized
  * O(m + log n): at most two boundary-crossing segments per layer actually
  * contribute scans.
  *
  * Within a layer, neighbor lists are stored sorted by distance, so
  * insertion order implements the paper's priority (upper layers first,
  * closer neighbors first) without extra distance computations. Dedup marks
  * each selected rank in a per-thread [[EpochMarks]], O(1) per neighbor with
  * no allocation on the query path. Output is written into `out`
  * (length ≥ m + 1) and -1-terminated so the search's scratch buffer can be
  * reused across expansions.
  */
object EdgeSelection {

  private val selected = ThreadLocal.withInitial[EpochMarks](() => new EpochMarks)

  /** Algorithm 1 for node u and range [L, R]; returns the edge count.
    * `skip = false` is the iRangeGraph⁻ ablation: every layer is scanned,
    * O(m log n), instead of only the boundary-crossing ones.
    */
  def select(g: ElementalGraphs, u: Int, L: Int, R: Int, out: Array[Int],
             skip: Boolean = true): Int = {
    val m = g.m
    val seen = selected.get()
    seen.clear()
    var l = 0
    var r = g.n - 1
    var lay = 0
    var count = 0
    var done = false
    while (!done && count < m && l < r) {
      val cm = SegmentTree.mid(l, r)
      var lc = l
      var rc = r
      if (u <= cm) rc = cm else lc = cm + 1
      // Same intersection as the child: its edges are equally robust, so the
      // skipping variant leaves this layer to the child. (A covered segment
      // never qualifies: its child's intersection is strictly smaller.)
      if (!skip || SegmentTree.intersectLen(lc, rc, L, R) != SegmentTree.intersectLen(l, r, L, R)) {
        count = appendInRange(g, lay, u, l, L, R, out, count, seen)
        done = L <= l && r <= R
      }
      l = lc; r = rc; lay += 1
    }
    if (count < out.length) out(count) = -1
    count
  }

  /** Forwarder kept for the benchmark harness (`perfbench/src/QueryTrace.scala`). */
  def selectNoSkip(g: ElementalGraphs, u: Int, L: Int, R: Int, out: Array[Int]): Int =
    select(g, u, L, R, out, skip = false)

  /** Append u's in-range layer-`lay` neighbors not yet in `seen` to
    * out[count..), stopping at m; l is the left end of u's layer-`lay` segment.
    */
  private def appendInRange(g: ElementalGraphs, lay: Int, u: Int, l: Int, L: Int, R: Int,
                            out: Array[Int], count0: Int, seen: EpochMarks): Int = {
    val m = g.m
    val lo = g.low(lay) // this layer's planes, hoisted out of the loop
    val hi = g.high(lay)
    val base = u * m
    val from = L - l
    val span = R - L
    var count = count0
    var j = 0
    while (j < m && count < m) {
      val off = ElementalGraphs.offset(lo, hi, base + j)
      if (off < 0) return count // empty slot: the list has ended
      // L <= l + off <= R as one unsigned compare.
      if (Integer.compareUnsigned(off - from, span) <= 0 && seen.add(l + off)) {
        out(count) = l + off
        count += 1
      }
      j += 1
    }
    count
  }
}
