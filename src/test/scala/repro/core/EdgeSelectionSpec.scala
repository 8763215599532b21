package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class EdgeSelectionSpec extends AnyFunSuite {

  private val n = 256
  private val m = 6
  private val vs = TestData.clusteredVs(n, 6, clusters = 5, seed = 81)
  private lazy val g = ElementalGraphBuilder.build(vs, m = m, ef = 40)

  /** Each graph's layers, decoded once and shared by the threads that read them. */
  private val decoded = scala.collection.concurrent.TrieMap.empty[ElementalGraphs, DecodedLayers]
  private def layersOf(g: ElementalGraphs): DecodedLayers = decoded.getOrElseUpdate(g, new DecodedLayers(g))

  private def sel(u: Int, L: Int, R: Int): Seq[Int] = select(g, u, L, R, skip = true)

  private def selNoSkip(u: Int, L: Int, R: Int): Seq[Int] = {
    val out = new Array[Int](m + 1)
    val c = EdgeSelection.selectNoSkip(g, u, L, R, out)
    out.take(c).toSeq
  }

  /** Reference implementation straight from Algorithm 1's text; with
    * `skip = false` no layer is left to its child (iRangeGraph⁻).
    */
  private def reference(g: ElementalGraphs, u: Int, L: Int, R: Int, skip: Boolean): Seq[Int] = {
    var l = 0; var r = g.n - 1; var lay = 0
    val s = scala.collection.mutable.LinkedHashSet.empty[Int]
    val d = layersOf(g)
    var done = false
    while (!done && s.size < g.m && l < r) {
      val (lc, rc) = TreeOracles.childContaining(l, r, u)
      if (skip && SegmentTree.intersectLen(lc, rc, L, R) == SegmentTree.intersectLen(l, r, L, R)) {
        l = lc; r = rc; lay += 1
      } else {
        for (v <- d.neighbors(lay, u) if v >= L && v <= R && s.size < g.m) s += v
        if (L <= l && r <= R) done = true
        else { l = lc; r = rc; lay += 1 }
      }
    }
    s.toSeq
  }

  private def reference(u: Int, L: Int, R: Int): Seq[Int] = reference(g, u, L, R, skip = true)

  private def select(g: ElementalGraphs, u: Int, L: Int, R: Int, skip: Boolean): Seq[Int] = {
    val out = new Array[Int](g.m + 1)
    val c = EdgeSelection.select(g, u, L, R, out, skip)
    assert(out(c) == -1)
    out.take(c).toSeq
  }

  /** (u, L, R) triples: random ranges with u anywhere in [0, n) (so often
    * outside the range), singleton ranges, and the full range.
    */
  private def cases(n: Int, count: Int, seed: Long): Seq[(Int, Int, Int)] = {
    val rnd = new java.util.Random(seed)
    Seq.fill(count) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      (rnd.nextInt(n), math.min(a, b), math.max(a, b))
    } ++ Seq.fill(count / 4) {
      val v = rnd.nextInt(n)
      (if (rnd.nextBoolean()) v else rnd.nextInt(n), v, v)
    } ++ Seq((rnd.nextInt(n), 0, n - 1))
  }

  private lazy val g700 = ElementalGraphBuilder.build(TestData.clusteredVs(700, 6, 5, seed = 86), m, ef = 40)
  private lazy val g1000 = ElementalGraphBuilder.build(TestData.clusteredVs(1000, 6, 5, seed = 87), m, ef = 40)

  test("matches the straight-from-paper reference on many random ranges") {
    val rnd = new java.util.Random(82)
    for (_ <- 0 until 300) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (ql, qr) = (math.min(a, b), math.max(a, b))
      val u = ql + rnd.nextInt(qr - ql + 1)
      assert(sel(u, ql, qr) == reference(u, ql, qr), s"u=$u range=[$ql,$qr]")
    }
  }

  test("only in-range edges are ever selected") {
    val rnd = new java.util.Random(83)
    for (_ <- 0 until 200) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (ql, qr) = (math.min(a, b), math.max(a, b))
      val u = ql + rnd.nextInt(qr - ql + 1)
      assert(sel(u, ql, qr).forall(v => v >= ql && v <= qr))
      assert(selNoSkip(u, ql, qr).forall(v => v >= ql && v <= qr))
    }
  }

  test("never more than m edges, never duplicates, never self") {
    val rnd = new java.util.Random(84)
    for (_ <- 0 until 200) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (ql, qr) = (math.min(a, b), math.max(a, b))
      val u = ql + rnd.nextInt(qr - ql + 1)
      val s = sel(u, ql, qr)
      assert(s.length <= m)
      assert(s.distinct.length == s.length)
      assert(!s.contains(u))
    }
  }

  test("full range selects exactly the root-layer neighbors") {
    for (u <- 0 until n by 11)
      assert(sel(u, 0, n - 1) == layersOf(g).neighbors(0, u).toSeq)
  }

  test("skip and no-skip agree when the root layer already fills m") {
    // For the full range both must return the root adjacency.
    for (u <- 0 until n by 17)
      assert(sel(u, 0, n - 1) == selNoSkip(u, 0, n - 1))
  }

  test("no-skip selects a superset-or-equal set of layers' edges") {
    // Without skipping, upper layers with unchanged intersections also
    // contribute edges, so the result can only have >= as many edges
    // until the cap, and every skipped-selection edge that is in-range in a
    // scanned layer appears no later.
    val rnd = new java.util.Random(85)
    for (_ <- 0 until 100) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (ql, qr) = (math.min(a, b), math.max(a, b))
      val u = ql + rnd.nextInt(qr - ql + 1)
      assert(selNoSkip(u, ql, qr).length >= sel(u, ql, qr).length ||
        selNoSkip(u, ql, qr).length == m)
    }
  }

  test("covered-segment termination: range equal to a segment returns that segment's graph edges prefix") {
    // When [L,R] is exactly a tree segment, descent reaches it, selects its
    // in-range (= all) edges and stops.
    val (l, r) = TreeOracles.segmentAt(n, 2, 100)
    for (u <- l to math.min(l + 10, r)) {
      val expected = {
        // reference: walk layers 0..2 picking in-range edges; at layer 2 the
        // segment is covered so selection stops there.
        reference(u, l, r)
      }
      assert(sel(u, l, r) == expected)
    }
  }

  test("singleton range yields no edges (only member is u itself)") {
    for (u <- Seq(0, 100, n - 1)) assert(sel(u, u, u).isEmpty)
  }

  test("terminator is written after the last edge") {
    val out = Array.fill(m + 1)(99)
    val c = EdgeSelection.select(g, 10, 0, 50, out)
    assert(out(c) == -1)
    val c2 = EdgeSelection.selectNoSkip(g, 10, 0, 50, out)
    assert(out(c2) == -1)
  }

  test("amortized work: skip variant scans far fewer layers than no-skip on narrow off-center ranges") {
    // Not a timing test — a structural one: count layers contributing edges.
    // For a range that is a single deep segment, skipping jumps straight
    // down; the no-skip variant scans every layer on the way.
    val (l, r) = TreeOracles.segmentAt(n, 5, 37)
    val u = 37
    // With skipping, selection must start at the first layer whose child
    // intersection differs; for a perfectly aligned segment range that is
    // the covered segment itself — a single layer.
    assert(sel(u, l, r) == layersOf(g).neighbors(5, u).filter(v => v >= l && v <= r).take(m).toSeq)
  }

  for ((name, graph) <- Seq("700" -> (() => g700), "1000" -> (() => g1000)); skip <- Seq(true, false)) {
    test(s"n = $name, skip = $skip: matches the reference, u inside or outside [L, R], L = R included") {
      val gr = graph()
      var outside = 0
      var singletons = 0
      for ((u, ql, qr) <- cases(gr.n, 400, 88 + gr.n)) {
        if (u < ql || u > qr) outside += 1
        if (ql == qr) singletons += 1
        assert(select(gr, u, ql, qr, skip) == reference(gr, u, ql, qr, skip), s"u=$u range=[$ql,$qr]")
      }
      assert(outside > 100 && singletons > 50)
    }
  }

  test("4 threads selecting at once get the sequential results") {
    val cs = cases(1000, 300, 89)
    val expected = cs.map { case (u, ql, qr) => select(g1000, u, ql, qr, skip = true) }
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val threads = Array.tabulate(4) { t =>
      new Thread(() => {
        for (round <- 0 until 5; i <- cs.indices) {
          val j = (i + 37 * t) % cs.length
          val (u, ql, qr) = cs(j)
          if (select(g1000, u, ql, qr, skip = (round + t) % 2 == 0) !=
              reference(g1000, u, ql, qr, skip = (round + t) % 2 == 0))
            failures.add(s"thread $t round $round case $j")
          if (round == 0 && select(g1000, u, ql, qr, skip = true) != expected(j))
            failures.add(s"thread $t case $j differs from the sequential result")
        }
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(failures.isEmpty, failures.toString)
  }

  test("one thread selecting on n = 256 and then n = 1000 stays exact as its marks grow") {
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    // A fresh thread, so its dedup marks start empty.
    val t = new Thread(() => {
      for (round <- 0 until 2; (gr, seed) <- Seq(g -> 90L, g1000 -> 91L); (u, ql, qr) <- cases(gr.n, 200, seed + round))
        if (select(gr, u, ql, qr, skip = true) != reference(gr, u, ql, qr, skip = true))
          failures.add(s"n=${gr.n} round $round u=$u range=[$ql,$qr]")
    })
    t.start()
    t.join()
    assert(failures.isEmpty, failures.toString)
  }
}
