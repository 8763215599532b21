package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The segment-relative encoding of `ElementalGraphs` at the 16-bit
  * boundary, on hand-made layers (m = 2) with no build: a root edge
  * 0 → 0 + offset and one layer-1 edge per graph.
  */
class ElementalGraphsSpec extends AnyFunSuite {

  private val m = 2

  /** Empty layers for n ranks with the given (layer, slot, global id) edges. */
  private def handMade(n: Int, edges: (Int, Int, Int)*): ElementalGraphs = {
    val layers = Array.fill(SegmentTree.depth(n))(Array.fill(n * m)(-1))
    for ((lay, slot, v) <- edges) layers(lay)(slot) = v
    new ElementalGraphs(n, m, layers)
  }

  // n = 65535: the root segment's largest offset, 65534, still fits beside
  // the all-ones empty slot. At 65536 and above the root needs the high
  // plane; at 65536 the root edge's offset 65535 has all-ones low bits.
  for ((n, rootBytes) <- Seq(65535 -> 2, 65536 -> 4, 70000 -> 4)) {
    test(s"n = $n: a root edge 0 -> ${n - 1} and a layer-1 edge round-trip, $rootBytes bytes per root id") {
      val (l1, r1) = SegmentTree.childContaining(0, n - 1, n - 1) // right child
      val u1 = r1 - 1
      val g = handMade(n, (0, 0, n - 1), (0, 1, 1), (1, u1 * m, l1))
      val decoded = g.layers
      assert(decoded(0).take(2).toSeq == Seq(n - 1, 1))
      assert(decoded(1)(u1 * m) == l1)
      assert(g.neighbors(0, 0).toSeq == Seq(n - 1, 1))
      assert(g.neighbors(1, u1).toSeq == Seq(l1))
      assert(g.degree(0, 1) == 0 && g.degree(1, u1) == 1)
      assert(decoded.map(_.count(_ >= 0)).sum == 3 && g.edgeCount == 3)

      // Full-range Algorithm 1 at node 0 scans the root and stops there.
      val out = new Array[Int](m + 1)
      assert(EdgeSelection.select(g, 0, 0, n - 1, out) == 2)
      assert(out.toSeq == Seq(n - 1, 1, -1))

      // Layer 1 is 16-bit in every case: ⌈70000 / 2⌉ = 35000.
      assert(g.sizeBytes == 2L * rootBytes + 2)
    }
  }

  test("the constructor rejects an id left of its segment, naming the layer and slot") {
    val n = 1000
    val (l1, _) = SegmentTree.childContaining(0, n - 1, n - 1)
    val slot = (n - 1) * m
    val e = intercept[IllegalArgumentException](handMade(n, (1, slot, l1 - 1)))
    assert(e.getMessage.contains(s"layer 1 slot $slot"), e.getMessage)
  }

  test("a 16-bit layer rejects an offset that would read as the empty slot") {
    val n = 65535
    val e = intercept[IllegalArgumentException](handMade(n, (0, 0, 65535)))
    assert(e.getMessage.contains("layer 0 slot 0"), e.getMessage)
  }
}
