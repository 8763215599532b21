package repro.core

import repro.graph.{FlatAdjacency, SortedList, VecStore}

/** Storage for all elemental graphs of the segment tree (Section 3.2).
  *
  * `layers(lay)` is a flat adjacency array of length n*m: the neighbors of
  * rank u in its layer-`lay` elemental graph live at `[u*m, (u+1)*m)`,
  * sorted ascending by (distance to u, id), padded with -1. Because each
  * rank belongs to exactly one segment per layer, a single flat array per
  * layer stores every segment's graph of that layer — the O(n m log n)
  * space bound is explicit in this layout.
  */
final class ElementalGraphs(
    val n: Int,
    val m: Int,
    val layers: Array[Array[Int]],
) extends Serializable {
  require(layers.forall(_.length == n * m), "each layer must be a flat n*m array")

  def numLayers: Int = layers.length

  /** Degree of u at layer `lay`. */
  def degree(lay: Int, u: Int): Int = FlatAdjacency.degree(layers(lay), m, u)

  /** Neighbors of u at layer `lay` as a fresh exact-size array (tests). */
  def neighbors(lay: Int, u: Int): Array[Int] = FlatAdjacency.neighbors(layers(lay), m, u)

  /** Total stored directed edges. */
  def edgeCount: Long = {
    var s = 0L
    var lay = 0
    while (lay < layers.length) {
      val a = layers(lay)
      var i = 0
      while (i < a.length) { if (a(i) >= 0) s += 1; i += 1 }
      lay += 1
    }
    s
  }

  /** Check the structural invariants of every layer over `vs`: each
    * neighbor of u lies in u's segment of that layer, with no self-loop;
    * neighbors ascend strictly by (distance to u, id), the order of
    * `SortedList.less`, so none repeats; the -1 padding is
    * contiguous. Throws `IllegalStateException` naming the first violation.
    */
  def validate(vs: VecStore): Unit = {
    def fail(msg: String): Nothing = throw new IllegalStateException(msg)
    if (vs.n != n) fail(s"graphs over $n ranks, vectors over ${vs.n}")
    for (lay <- layers.indices; u <- 0 until n) {
      val (l, r) = SegmentTree.segmentAt(n, lay, u)
      val a = layers(lay)
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

  /** Index bytes: 4 per stored neighbor id (paper-style accounting). */
  def sizeBytes: Long = edgeCount * 4L
}
