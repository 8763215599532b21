package repro.core

import repro.graph.{EpochMarks, SortedList, VecStore}

/** Storage for all elemental graphs of the segment tree (Section 3.2).
  *
  * Layer `lay` keeps u's neighbors in its layer-`lay` elemental graph at
  * slots `[u*m, (u+1)*m)`, sorted ascending by (distance to u, id), then empty
  * slots: one flat plane per layer, so the O(n m log n) space bound is
  * explicit. Each neighbor is an offset from the left end l of u's segment,
  * which holds at most ⌈n / 2^lay⌉ ranks, so no offset exceeds (n - 1) >> lay.
  * A plane is the narrowest array that keeps all ones free for an empty slot:
  * bytes where that bound is below 0xFF, chars below 0xFFFF, else ints. The
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

  import ElementalGraphs.{newPlane, offset, store}
  private val planes = Array.tabulate(numLayers)(lay => newPlane(n * m, (n - 1) >> lay))

  locally {
    val src = globalLayers // a local, so that no field keeps the input
    forEachNode { (lay, l, r, u) =>
      for (s <- u * m until (u + 1) * m) {
        val v = src(lay)(s)
        def at = s"layer $lay slot $s (node $u, segment [$l,$r])"
        if (v != -1) {
          require(l <= v && v <= r, s"$at: neighbor $v outside the segment")
          require(v != u, s"$at: self-loop")
          require(s == u * m || src(lay)(s - 1) != -1, s"$at: neighbor $v after an empty slot")
        } // then v - l <= r - l <= (n - 1) >> lay, which is below the plane's all-ones
        store(planes(lay), s, if (v == -1) -1 else v - l)
      }
    }
  }

  /** f(lay, l, r, u) for every layer and rank u, in that order; [l, r] is u's segment
    * there, or the leaf [u, u] where u's branch bottomed out above `lay`.
    */
  private def forEachNode(f: ElementalGraphs.NodeFn): Unit =
    for (lay <- 0 until numLayers) {
      var u = 0 // ranks left of a segment are leaves above `lay`; (n, n - 1) ends the last gap
      for ((l, r) <- SegmentTree.segmentsAtLayer(n, lay) :+ ((n, n - 1))) {
        while (u < l) { f(lay, u, u, u); u += 1 }
        while (u <= r) { f(lay, l, r, u); u += 1 }
      }
    }

  /** u's layer-`lay` neighbors as global ranks in out[0, m), -1 after the last; l is the
    * left end of u's segment there.
    */
  private[core] def neighborsInto(lay: Int, l: Int, u: Int, out: Array[Int]): Array[Int] = {
    for (j <- 0 until m) { val off = offset(planes(lay), u * m + j); out(j) = if (off < 0) -1 else l + off }
    out
  }

  /** Algorithm 1's read of layer `lay`: append u's neighbors in [L, R] not yet in `seen`
    * to out[count0..), stopping at m; l as in `neighborsInto`. Returns the new count.
    */
  private[core] def appendInRange(lay: Int, u: Int, l: Int, L: Int, R: Int,
                                  out: Array[Int], count0: Int, seen: EpochMarks): Int = {
    val plane = planes(lay) // read once: its width test is the same for every slot
    val base = u * m
    val from = L - l
    val span = R - L
    var count = count0
    var j = 0
    while (j < m && count < m) {
      val off = offset(plane, base + j)
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

  private def edges(lay: Int): Long = (0 until n * m).count(offset(planes(lay), _) >= 0).toLong

  /** Total stored directed edges. */
  def edgeCount: Long = (0 until numLayers).map(edges).sum

  /** Check the one invariant that needs `vs` (the constructor checks the rest): each list
    * ascends strictly by (distance to u, id), the order of `SortedList.less`, so none repeats.
    * Throws `IllegalStateException` naming the first violation.
    */
  def validate(vs: VecStore): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    if (vs.n != n) fail(s"graphs over $n ranks, vectors over ${vs.n}")
    val buf = new Array[Int](m)
    forEachNode { (lay, l, _, u) =>
      val node = neighborsInto(lay, l, u, buf)
      var i = 1
      while (i < m && node(i) >= 0) {
        val (p, v) = (node(i - 1), node(i))
        if (!SortedList.less(vs.dist2(u, p), p, vs.dist2(u, v), v))
          fail(s"layer $lay node $u slot $i: $v not after $p in (distance, id) order")
        i += 1
      }
    }
  }

  /** Index bytes as stored: 1, 2 or 4 per neighbor id, the width of its layer's plane
    * (the paper counts 4).
    */
  def sizeBytes: Long = (0 until numLayers).map { lay =>
    edges(lay) * (planes(lay) match { case _: Array[Byte] => 1 case _: Array[Char] => 2 case _ => 4 })
  }.sum
}

object ElementalGraphs {
  /** `forEachNode`'s callback: a Function4 would box its four Ints on every call. */
  private trait NodeFn { def apply(lay: Int, l: Int, r: Int, u: Int): Unit }

  /** A plane of `size` slots for offsets up to `maxOffset`: the narrowest of
    * `Array[Byte]`, `Array[Char]` and `Array[Int]` whose all-ones value exceeds it.
    */
  private def newPlane(size: Int, maxOffset: Int): AnyRef =
    if (maxOffset < 0xFF) new Array[Byte](size)
    else if (maxOffset < 0xFFFF) new Array[Char](size)
    else new Array[Int](size)

  /** Store offset `off` (-1 if empty) in slot s as its low 8, 16 or 32 bits. */
  private def store(plane: AnyRef, s: Int, off: Int): Unit = (plane: @unchecked) match {
    case b: Array[Byte] => b(s) = off.toByte
    case c: Array[Char] => c(s) = off.toChar
    case i: Array[Int] => i(s) = off
  }

  /** Slot s of a plane as an offset; -1 if empty (all ones). A plane is one of `newPlane`'s three. */
  private def offset(plane: AnyRef, s: Int): Int = (plane: @unchecked) match {
    case b: Array[Byte] => val v = b(s) & 0xFF; if (v == 0xFF) -1 else v
    case c: Array[Char] => val v: Int = c(s); if (v == 0xFFFF) -1 else v
    case i: Array[Int] => i(s)
  }
}
