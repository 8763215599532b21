package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{ExactOracles, TestData}
import repro.bench.BenchUtil
import repro.graph.BruteForce
import repro.data.GroundTruth

class ElementalGraphBuilderSpec extends AnyFunSuite {

  private val vs = TestData.clusteredVs(512, 8, clusters = 6, seed = 71)
  private lazy val g = ElementalGraphBuilder.build(vs, m = 8, ef = 60)
  private lazy val gl = new DecodedLayers(g)

  test("layer count equals the segment tree depth") {
    assert(g.numLayers == SegmentTree.depth(512))
  }

  test("degrees never exceed m on any layer") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512)
      assert(gl.degree(lay, u) <= 8)
  }

  test("neighbors stay within the node's segment at every layer") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512) {
      val (l, r) = TreeOracles.segmentAt(512, lay, u)
      assert(gl.neighbors(lay, u).forall(v => v >= l && v <= r),
        s"layer $lay node $u leaks outside [$l,$r]")
    }
  }

  test("leaf layers have no edges") {
    val last = g.numLayers - 1
    for (u <- 0 until 512) assert(gl.degree(last, u) == 0)
  }

  test("neighbor lists are sorted ascending by distance") {
    for (lay <- 0 until g.numLayers - 1; u <- 0 until 512 by 13) {
      val ds = gl.neighbors(lay, u).map(vs.dist2(u, _))
      assert(ds.sliding(2).forall { case Array(a, b) => a <= b; case _ => true })
    }
  }

  test("no self-loops or duplicate neighbors") {
    for (lay <- 0 until g.numLayers; u <- 0 until 512) {
      val nb = gl.neighbors(lay, u)
      assert(!nb.contains(u))
      assert(nb.distinct.length == nb.length)
    }
    g.validate(vs)
  }

  test("small segments keep every exact-RNG edge (brute-force path, full candidates)") {
    // Segments <= bruteThreshold use all members as candidates; the greedy
    // kept-set prune then retains a superset of the exact RNG edges.
    val small = TestData.randomVs(16, 4, seed = 72)
    val sg = ElementalGraphBuilder.build(small, m = 16, ef = 32)
    val sgl = new DecodedLayers(sg)
    val exact = ExactOracles.exactRng(small, 0, 15)
    for (u <- 0 until 16)
      assert(exact(u).toSet.subsetOf(sgl.neighbors(0, u).toSet), s"node $u")
    sg.validate(small)
  }

  test("above the brute-force threshold, same-child parent edges come from the child graph") {
    // Invariant from Section 3.2.2: for segments built via the bottom-up
    // path, candidates from the containing child are copied from the child's
    // adjacency — so a parent edge (u,v) with v in u's child segment must be
    // a child-graph edge. (Brute-forced small segments use all members as
    // candidates instead, so the invariant applies above the threshold.)
    val thresh = ElementalGraphBuilder.bruteThreshold(8)
    for (lay <- 0 until g.numLayers - 1; u <- 0 until 512 by 7) {
      val (l, r) = TreeOracles.segmentAt(512, lay, u)
      if (r - l + 1 > thresh) {
        val (cl, cr) = TreeOracles.childContaining(l, r, u)
        val childNbrs = gl.neighbors(lay + 1, u).toSet
        for (v <- gl.neighbors(lay, u) if v >= cl && v <= cr)
          assert(childNbrs.contains(v),
            s"parent edge ($u,$v) at layer $lay not in child graph")
      }
    }
  }

  test("root graph supports accurate ANN search over the whole set") {
    val queries = TestData.nearQueries(vs, 20, seed = 73)
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, 511, 10))
    val got = queries.map { q =>
      // search layer 0 directly via a full-range query on iRangeGraph
      new IRangeGraph(vs, g).search(q, 0, 511, 10, beam = 120).map(_.id)
    }
    assert(GroundTruth.meanRecall(gt, got) >= 0.9)
  }

  test("arbitrary (non power of two) n builds and stays consistent") {
    val odd = TestData.clusteredVs(333, 6, clusters = 4, seed = 74)
    val og = ElementalGraphBuilder.build(odd, m = 6, ef = 40)
    val ogl = new DecodedLayers(og)
    assert(og.numLayers == SegmentTree.depth(333))
    for (lay <- 0 until og.numLayers; u <- 0 until 333) {
      val (l, r) = TreeOracles.segmentAt(333, lay, u)
      assert(ogl.neighbors(lay, u).forall(v => v >= l && v <= r && v != u))
    }
    og.validate(odd)
  }

  test("build is deterministic") {
    val a = ElementalGraphBuilder.build(vs.slice(0, 128), m = 6, ef = 30).layers
    val b = ElementalGraphBuilder.build(vs.slice(0, 128), m = 6, ef = 30).layers
    for (lay <- a.indices)
      assert(a(lay).toSeq == b(lay).toSeq)
  }

  test("buildSegmentLayer over stale ids writes the same slots as over a -1-filled layer") {
    val clean = ElementalGraphBuilder.buildAll(vs, m = 8, ef = 60)
    // Layer 2 takes the sibling-search path (128-rank segments, 64-rank
    // siblings above ef), and the layer above the leaves the all-members one.
    for (lay <- Seq(2, clean.length - 2)) {
      val stale = clean.map(_.clone())
      java.util.Arrays.fill(stale(lay), 511) // a stale id in every slot, padding included
      for ((l, r) <- SegmentTree.segmentsAtLayer(512, lay))
        ElementalGraphBuilder.buildSegmentLayer(vs, stale, 8, 60, l, r, lay)
      assert(stale(lay).contains(-1), s"layer $lay")
      assert(java.util.Arrays.equals(stale(lay), clean(lay)), s"layer $lay")
    }
  }

  test("edgeCount and sizeBytes agree") {
    assert(g.sizeBytes == ElementalGraphsSpec.expectedBytes(g))
    assert(g.edgeCount > 0)
  }

  test("space is O(n m log n): bounded by n*m per layer") {
    assert(g.edgeCount <= 512L * 8 * g.numLayers)
  }

  private def sameLayers(a: ElementalGraphs, b: ElementalGraphs): Boolean = {
    val (x, y) = (a.layers, b.layers)
    x.length == y.length && x.indices.forall(i => java.util.Arrays.equals(x(i), y(i)))
  }

  test("validate rejects each broken invariant") {
    val u = 100
    val nb = gl.neighbors(0, u)
    assert(nb.length >= 3)
    val decoded = gl.layers
    def broken(lay: Int)(edit: Array[Int] => Unit): ElementalGraphs = {
      val layers = decoded.map(_.clone())
      edit(layers(lay))
      new ElementalGraphs(g.n, g.m, layers)
    }
    val (l, r) = TreeOracles.segmentAt(512, 2, u)
    val outside = if (l > 0) l - 1 else r + 1
    // The structure is checked when the index is constructed.
    for ((lay, slot, msg, edit) <- Seq[(Int, Int, String, Array[Int] => Unit)](
           (2, u * 8, "outside", a => a(u * 8) = outside),
           (0, u * 8, "self-loop", a => a(u * 8) = u),
           (0, u * 8 + 2, "empty slot", a => a(u * 8 + 1) = -1))) {
      val e = intercept[IllegalArgumentException](broken(lay)(edit))
      assert(e.getMessage.contains(s"layer $lay slot $slot") && e.getMessage.contains(msg), e.getMessage)
    }
    // The order needs the vectors, so `validate` checks it.
    for (bad <- Seq(
           broken(0)(a => a(u * 8 + 1) = nb(0)), // duplicate
           broken(0) { a => a(u * 8) = nb(1); a(u * 8 + 1) = nb(0) })) { // unsorted
      val e = intercept[IllegalStateException](bad.validate(vs))
      assert(e.getMessage.contains("order"), e.getMessage)
    }
  }

  test("node-parallel build equals a one-thread build above the brute-force threshold") {
    for ((n, seed) <- Seq(600 -> 75L, 1000 -> 76L, 2048 -> 77L)) {
      val big = TestData.clusteredVs(n, 8, clusters = 6, seed = seed)
      assert(n / 2 > ElementalGraphBuilder.bruteThreshold(8))
      val par = ElementalGraphBuilder.build(big, m = 8, ef = 40)
      val one = BenchUtil.onOneThread(ElementalGraphBuilder.build(big, m = 8, ef = 40))
      assert(sameLayers(par, one), s"n=$n")
      par.validate(big)
    }
  }

  test("four threads building the same input at once all get the one-thread result") {
    val big = TestData.clusteredVs(1000, 8, clusters = 6, seed = 76)
    val one = BenchUtil.onOneThread(ElementalGraphBuilder.build(big, m = 8, ef = 40))
    val out = new Array[ElementalGraphs](4)
    val threads = Array.tabulate(4)(t =>
      new Thread(() => out(t) = ElementalGraphBuilder.build(big, m = 8, ef = 40)))
    threads.foreach(_.start())
    threads.foreach(_.join())
    for (t <- 0 until 4) {
      assert(sameLayers(out(t), one), s"thread $t")
      out(t).validate(big)
    }
  }
}
