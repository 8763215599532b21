package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.graph.VecStore

/** The segment-relative encoding of `ElementalGraphs` at its width
  * boundaries, on hand-made layers (m = 2) with no build: a root edge
  * 0 → 0 + offset and one layer-1 edge per graph. A layer stores 1-byte ids
  * where its segments hold at most 255 ranks, 2-byte ids up to 65535 ranks
  * and 4-byte ids above.
  * Then `sizeBytes` against that rule on a built index, and the
  * constructor's structural check at n = 8, where a malformed index would
  * otherwise reach a search.
  */
class ElementalGraphsSpec extends AnyFunSuite {
  import ElementalGraphsSpec.{expectedBytes, width}

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
      val (l1, r1) = TreeOracles.childContaining(0, n - 1, n - 1) // right child
      val u1 = r1 - 1
      val g = handMade(n, (0, 0, n - 1), (0, 1, 1), (1, u1 * m, l1))
      val gl = new DecodedLayers(g)
      assert(gl.layers(0).take(2).toSeq == Seq(n - 1, 1))
      assert(gl.layers(1)(u1 * m) == l1)
      assert(gl.neighbors(0, 0).toSeq == Seq(n - 1, 1))
      assert(gl.neighbors(1, u1).toSeq == Seq(l1))
      assert(gl.degree(0, 1) == 0 && gl.degree(1, u1) == 1)
      assert(gl.layers.map(_.count(_ >= 0)).sum == 3 && g.edgeCount == 3)

      // Full-range Algorithm 1 at node 0 scans the root and stops there.
      val out = new Array[Int](m + 1)
      assert(EdgeSelection.select(g, 0, 0, n - 1, out) == 2)
      assert(out.toSeq == Seq(n - 1, 1, -1))

      // Layer 1 is 16-bit in every case: ⌈70000 / 2⌉ = 35000.
      assert(g.sizeBytes == 2L * rootBytes + 2)
    }
  }

  // n = 255: the root's largest offset, 254, still fits a byte beside the
  // all-ones empty slot. At 256 the root needs 2 bytes, while layer 1, whose
  // segments hold at most 128 ranks, keeps 1.
  for ((n, rootBytes) <- Seq(255 -> 1, 256 -> 2)) {
    test(s"n = $n: a root edge 0 -> ${n - 1} and a layer-1 edge round-trip, $rootBytes-byte root ids, 1-byte layer-1 ids") {
      val (l1, r1) = TreeOracles.childContaining(0, n - 1, n - 1) // right child
      val g = handMade(n, (0, 0, n - 1), (1, l1 * m, r1))
      val gl = new DecodedLayers(g)
      assert(gl.layers(0).take(2).toSeq == Seq(n - 1, -1))
      assert(gl.neighbors(0, 0).toSeq == Seq(n - 1))
      assert(gl.neighbors(1, l1).toSeq == Seq(r1))
      assert(g.edgeCount == 2 && g.sizeBytes == rootBytes + 1)
    }
  }

  test("n = 2048, built: sizeBytes sums each layer's edges times its width") {
    val vs = TestData.randomVs(2048, 4, seed = 91)
    val g = ElementalGraphBuilder.build(vs, m = 8, ef = 40)
    // (2047 >> 3) = 255 needs 2 bytes; (2047 >> 4) = 127 fits 1.
    assert((0 until g.numLayers).map(width(2048, _)) ==
      Seq.fill(4)(2) ++ Seq.fill(g.numLayers - 4)(1))
    assert(g.sizeBytes == expectedBytes(g))
  }

  test("the constructor rejects an id left of its segment, naming the layer and slot") {
    val n = 1000
    val (l1, _) = TreeOracles.childContaining(0, n - 1, n - 1)
    val slot = (n - 1) * m
    val e = intercept[IllegalArgumentException](handMade(n, (1, slot, l1 - 1)))
    assert(e.getMessage.contains(s"layer 1 slot $slot"), e.getMessage)
  }

  test("a 16-bit layer rejects an offset that would read as the empty slot") {
    val n = 65535
    val e = intercept[IllegalArgumentException](handMade(n, (0, 0, 65535)))
    assert(e.getMessage.contains("layer 0 slot 0"), e.getMessage)
  }

  /** Rank i holds the vector (i, 0), so a query's nearest ranks are plain to see. */
  private val line = VecStore.fromRows((0 until 8).map(i => Array(i.toFloat, 0f)))

  private def assertRejected(fragments: String*)(body: => Any): org.scalatest.Assertion = {
    val e = intercept[IllegalArgumentException](body)
    assert(fragments.forall(e.getMessage.contains), e.getMessage)
  }

  test("n = 8: the constructor rejects a neighbor right of its segment, which BasicSearch would return") {
    // Node 0's layer-1 segment is [0, 3]; the query (4.6, 0) is nearest to 5.
    assert(TreeOracles.segmentAt(8, 1, 0) == ((0, 3)))
    assertRejected("layer 1 slot 0", "outside") {
      BasicSearch.search(line, handMade(8, (1, 0, 5)), Array(4.6f, 0f), 0, 3, 4, 10)
    }
  }

  test("n = 8: the constructor rejects a self-loop") {
    // Node 3's layer-2 segment is [2, 3]: neighbor 2 is fine, 3 is itself.
    assertRejected("layer 2 slot 7", "self-loop")(handMade(8, (2, 6, 2), (2, 7, 3)))
  }

  test("n = 8: the constructor rejects a neighbor after an empty slot") {
    assertRejected("layer 0 slot 1", "after an empty slot")(handMade(8, (0, 1, 3)))
  }

  test("n = 8: the constructor rejects a 1-layer index, which IRangeGraph.search would read past") {
    assertRejected(s"${SegmentTree.depth(8)} layers, got 1") {
      val g = new ElementalGraphs(8, m, Array(Array.fill(8 * m)(-1)))
      new IRangeGraph(line, g).search(Array(1f, 0f), 0, 3, 2, 10)
    }
  }
}

object ElementalGraphsSpec {

  /** Bytes per stored id on layer `lay` of an index over n ranks: the
    * narrowest width whose all-ones empty marker exceeds every offset there.
    */
  def width(n: Int, lay: Int): Int = {
    val maxOffset = (n - 1) >> lay
    if (maxOffset < 0xFF) 1 else if (maxOffset < 0xFFFF) 2 else 4
  }

  /** Σ over layers of that layer's edges × its width, the edges counted on one `layers` copy. */
  def expectedBytes(g: ElementalGraphs): Long =
    g.layers.zipWithIndex.map { case (layer, lay) => layer.count(_ >= 0).toLong * width(g.n, lay) }.sum
}
