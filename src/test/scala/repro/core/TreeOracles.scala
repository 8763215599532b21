package repro.core

/** The specs' geometry oracle: a root-down descent to the segment that holds
  * a rank, written apart from `SegmentTree.segmentsAtLayer` and from
  * Algorithm 1's own walk, which the specs check against it.
  */
object TreeOracles {

  /** Child of [l, r] containing rank u. */
  def childContaining(l: Int, r: Int, u: Int): (Int, Int) = {
    require(l < r && l <= u && u <= r, s"childContaining($l,$r,$u)")
    val m = SegmentTree.mid(l, r)
    if (u <= m) (l, m) else (m + 1, r)
  }

  /** Segment containing rank u at layer `lay`; the leaf's segment if the
    * branch ends above `lay`.
    */
  def segmentAt(n: Int, lay: Int, u: Int): (Int, Int) = {
    var seg = (0, n - 1)
    var i = 0
    while (i < lay && seg._1 < seg._2) {
      seg = childContaining(seg._1, seg._2, u)
      i += 1
    }
    seg
  }
}

/** An index's layers decoded once (`ElementalGraphs.layers`), read per node. */
final class DecodedLayers(g: ElementalGraphs) {
  val layers: Array[Array[Int]] = g.layers

  /** u's layer-`lay` neighbors: its slots before the first empty one. */
  def neighbors(lay: Int, u: Int): Array[Int] =
    layers(lay).slice(u * g.m, (u + 1) * g.m).takeWhile(_ >= 0)

  def degree(lay: Int, u: Int): Int = neighbors(lay, u).length
}
