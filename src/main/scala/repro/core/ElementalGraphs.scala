package repro.core

import repro.graph.{SortedList, VecStore}

/** Storage for all elemental graphs of the segment tree (Section 3.2).
  *
  * Layer `lay` keeps u's neighbors in its layer-`lay` elemental graph at
  * slots `[u*m, (u+1)*m)`, sorted ascending by (distance to u, id), then empty
  * slots: one flat array per layer, so the O(n m log n) space bound is
  * explicit. Each neighbor is an offset from the left end l of u's segment,
  * which holds at most ⌈n / 2^lay⌉ ranks: 16 bits, all ones when empty, plus a
  * high 16-bit plane on layers whose segments can exceed 65535 ranks. The
  * constructor encodes the builders' -1-padded global ranks and drops them.
  */
final class ElementalGraphs(
    val n: Int,
    val m: Int,
    globalLayers: Array[Array[Int]],
) extends Serializable {
  require(globalLayers.forall(_.length == n * m), "each layer must be a flat n*m array")

  val numLayers: Int = globalLayers.length

  import ElementalGraphs.Empty
  private[core] val low = Array.fill(numLayers)(new Array[Char](n * m))
  private[core] val high = Array.tabulate(numLayers)(lay =>
    if (((n - 1) >> lay) >= Empty) new Array[Char](n * m) else null)

  locally {
    val src = globalLayers // a local, so that no field keeps the input
    forEachNode { (lay, l, u) =>
      for (s <- u * m until (u + 1) * m) {
        val v = src(lay)(s)
        val off = if (v == -1) -1 else v - l
        require(v == -1 || (off >= 0 && (high(lay) != null || off < Empty)),
          s"layer $lay slot $s: neighbor $v cannot be stored as an offset from segment start $l")
        low(lay)(s) = off.toChar
        if (high(lay) != null) high(lay)(s) = (off >>> 16).toChar
      }
    }
  }

  /** f(lay, l, u) for every layer and rank u; l is the left end of u's segment there (or its leaf). */
  private def forEachNode(f: (Int, Int, Int) => Unit): Unit =
    for (lay <- 0 until numLayers; u <- 0 until n) f(lay, SegmentTree.segmentAt(n, lay, u)._1, u)

  /** Offset of slot s of layer `lay` from the left end l of its node's segment; -1 if empty. */
  private[core] def offset(lay: Int, s: Int): Int = ElementalGraphs.offset(low(lay), high(lay), s)

  /** u's layer-`lay` neighbors as global ranks in out[0, m), -1 after the last; l as in `offset`. */
  private[core] def neighborsInto(lay: Int, l: Int, u: Int, out: Array[Int]): Array[Int] = {
    for (j <- 0 until m) { val off = offset(lay, u * m + j); out(j) = if (off < 0) -1 else l + off }
    out
  }

  /** Every layer decoded to the constructor's input layout, as a fresh copy. */
  def layers: Array[Array[Int]] = {
    val out = Array.fill(numLayers)(new Array[Int](n * m))
    val node = new Array[Int](m)
    forEachNode((lay, l, u) => System.arraycopy(neighborsInto(lay, l, u, node), 0, out(lay), u * m, m))
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

  /** Check the structural invariants of every layer over `vs`: each
    * neighbor of u lies in u's segment of that layer, with no self-loop;
    * neighbors ascend strictly by (distance to u, id), the order of
    * `SortedList.less`, so none repeats; the empty slots are contiguous.
    * Throws `IllegalStateException` naming the first violation.
    */
  def validate(vs: VecStore): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    if (vs.n != n) fail(s"graphs over $n ranks, vectors over ${vs.n}")
    for ((a, lay) <- layers.zipWithIndex; u <- 0 until n) {
      val (l, r) = SegmentTree.segmentAt(n, lay, u)
      val base = u * m
      val d = degree(lay, u)
      var i = 0
      while (i < m) {
        val v = a(base + i)
        def at = s"layer $lay node $u slot $i"
        if (i >= d) { if (v != -1) fail(s"$at: $v after the -1 padding") }
        else {
          if (v < l || v > r) fail(s"$at: neighbor $v outside segment [$l,$r]")
          if (v == u) fail(s"$at: self-loop")
          if (i > 0) {
            val p = a(base + i - 1)
            if (!SortedList.less(vs.dist2(u, p), p, vs.dist2(u, v), v))
              fail(s"$at: $v not after $p in (distance, id) order")
          }
        }
        i += 1
      }
    }
  }

  /** Index bytes as stored: 2 per neighbor id, 4 on high-plane layers (the paper counts 4). */
  def sizeBytes: Long = (0 until numLayers).map(lay => edges(lay) * (if (high(lay) == null) 2 else 4)).sum
}

object ElementalGraphs {
  private[core] final val Empty = 0xFFFF

  /** Slot s of one layer's planes (`hi` null on a 16-bit layer) as an offset; -1 if empty. */
  private[core] def offset(lo: Array[Char], hi: Array[Char], s: Int): Int = {
    val low: Int = lo(s)
    if (hi != null) (hi(s) << 16) | low else if (low == Empty) -1 else low
  }
}
