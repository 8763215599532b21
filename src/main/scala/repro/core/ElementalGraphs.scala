package repro.core

import repro.graph.{EpochMarks, SortedList, VecStore}

/** Storage for all elemental graphs of the segment tree (Section 3.2).
  *
  * Layer `lay` keeps u's neighbors in its layer-`lay` elemental graph at
  * slots `[u*m, (u+1)*m)`, sorted ascending by (distance to u, id), then empty
  * slots: one flat array per layer, so the O(n m log n) space bound is
  * explicit. Each neighbor is an offset from the left end l of u's segment,
  * which holds at most ⌈n / 2^lay⌉ ranks: 16 bits, all ones when empty, plus a
  * high 16-bit plane on layers whose segments can exceed 65535 ranks. The
  * constructor checks and encodes the builders' -1-padded global ranks and
  * drops them; no other class reads the stored form.
  */
final class ElementalGraphs(
    val n: Int,
    val m: Int,
    globalLayers: Array[Array[Int]],
) extends Serializable {
  require(globalLayers.length == SegmentTree.depth(n),
    s"an index over $n ranks has ${SegmentTree.depth(n)} layers, got ${globalLayers.length}")
  require(globalLayers.forall(_.length == n * m), "each layer must be a flat n*m array")

  val numLayers: Int = globalLayers.length

  import ElementalGraphs.Empty
  private val low = Array.fill(numLayers)(new Array[Char](n * m))
  private val high = Array.tabulate(numLayers)(lay =>
    if (((n - 1) >> lay) >= Empty) new Array[Char](n * m) else null)

  locally {
    val src = globalLayers // a local, so that no field keeps the input
    forEachNode { (lay, l, r, u) =>
      for (s <- u * m until (u + 1) * m) {
        val v = src(lay)(s)
        val off = if (v == -1) -1 else v - l
        def at = s"layer $lay slot $s (node $u, segment [$l,$r])"
        if (v != -1) {
          require(l <= v && v <= r, s"$at: neighbor $v outside the segment")
          require(v != u, s"$at: self-loop")
          require(s == u * m || src(lay)(s - 1) != -1, s"$at: neighbor $v after an empty slot")
        } // then off <= r - l <= (n - 1) >> lay, which is below Empty on a 16-bit layer
        low(lay)(s) = off.toChar
        if (high(lay) != null) high(lay)(s) = (off >>> 16).toChar
      }
    }
  }

  /** f(lay, l, r, u) for every layer and rank u; [l, r] is u's segment there (or its leaf). */
  private def forEachNode(f: (Int, Int, Int, Int) => Unit): Unit =
    for (lay <- 0 until numLayers; u <- 0 until n) {
      val (l, r) = SegmentTree.segmentAt(n, lay, u)
      f(lay, l, r, u)
    }

  /** Offset of slot s of layer `lay` from the left end l of its node's segment; -1 if empty. */
  private def offset(lay: Int, s: Int): Int = ElementalGraphs.offset(low(lay), high(lay), s)

  /** u's layer-`lay` neighbors as global ranks in out[0, m), -1 after the last; l as in `offset`. */
  private[core] def neighborsInto(lay: Int, l: Int, u: Int, out: Array[Int]): Array[Int] = {
    for (j <- 0 until m) { val off = offset(lay, u * m + j); out(j) = if (off < 0) -1 else l + off }
    out
  }

  /** Algorithm 1's read of layer `lay`: append u's neighbors in [L, R] not yet in `seen`
    * to out[count0..), stopping at m; l as in `offset`. Returns the new count.
    */
  private[core] def appendInRange(lay: Int, u: Int, l: Int, L: Int, R: Int,
                                  out: Array[Int], count0: Int, seen: EpochMarks): Int = {
    val lo = low(lay) // this layer's planes, hoisted out of the loop
    val hi = high(lay)
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

  /** Every layer decoded to the constructor's input layout, as a fresh copy. */
  def layers: Array[Array[Int]] = {
    val out = Array.fill(numLayers)(new Array[Int](n * m))
    val node = new Array[Int](m)
    forEachNode((lay, l, _, u) => System.arraycopy(neighborsInto(lay, l, u, node), 0, out(lay), u * m, m))
    out
  }

  /** Degree of u at layer `lay`. */
  def degree(lay: Int, u: Int): Int = (0 until m).takeWhile(j => offset(lay, u * m + j) >= 0).length

  /** Neighbors of u at layer `lay` as a fresh exact-size array (tests). */
  def neighbors(lay: Int, u: Int): Array[Int] =
    neighborsInto(lay, SegmentTree.segmentAt(n, lay, u)._1, u, new Array[Int](m)).take(degree(lay, u))

  private def edges(lay: Int): Long = (0 until n * m).count(offset(lay, _) >= 0).toLong

  /** Total stored directed edges. */
  def edgeCount: Long = (0 until numLayers).map(edges).sum

  /** Check the one invariant that needs `vs` (the constructor checks the rest): each list
    * ascends strictly by (distance to u, id), the order of `SortedList.less`, so none repeats.
    * Throws `IllegalStateException` naming the first violation.
    */
  def validate(vs: VecStore): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    if (vs.n != n) fail(s"graphs over $n ranks, vectors over ${vs.n}")
    val node = new Array[Int](m)
    forEachNode { (lay, l, _, u) =>
      neighborsInto(lay, l, u, node)
      var i = 1
      while (i < m && node(i) >= 0) {
        val (p, v) = (node(i - 1), node(i))
        if (!SortedList.less(vs.dist2(u, p), p, vs.dist2(u, v), v))
          fail(s"layer $lay node $u slot $i: $v not after $p in (distance, id) order")
        i += 1
      }
    }
  }

  /** Index bytes as stored: 2 per neighbor id, 4 on high-plane layers (the paper counts 4). */
  def sizeBytes: Long = (0 until numLayers).map(lay => edges(lay) * (if (high(lay) == null) 2 else 4)).sum
}

object ElementalGraphs {
  private final val Empty = 0xFFFF

  /** Slot s of one layer's planes (`hi` null on a 16-bit layer) as an offset; -1 if empty. */
  private def offset(lo: Array[Char], hi: Array[Char], s: Int): Int = {
    val low: Int = lo(s)
    if (hi != null) (hi(s) << 16) | low else if (low == Empty) -1 else low
  }
}
