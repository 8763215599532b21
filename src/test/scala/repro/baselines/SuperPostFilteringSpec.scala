package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.{BruteForce, SortedList}

class SuperPostFilteringSpec extends AnyFunSuite {

  private val n = 512
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 191)
  private val queries = TestData.nearQueries(vs, 15, seed = 192)
  private lazy val sp = new SuperPostFiltering(vs, m = 10, efConstruction = 60)

  test("window set contains the full range at level 0") {
    assert(sp.windows.exists { case (lo, hi, _) => lo == 0 && hi == n - 1 })
  }

  test("beta=2 windows half-overlap within a level") {
    val byLen = sp.windows.groupBy { case (lo, hi, _) => hi - lo + 1 }
    for ((len, ws) <- byLen if len < n && ws.length > 1) {
      val starts = ws.map(_._1).sorted
      assert(starts.sliding(2).forall {
        case Array(a, b) => b - a <= len / 2 + 1
        case _ => true
      }, s"level length $len strides too far")
    }
  }

  test("coveringWindow covers and is minimal") {
    val rnd = new java.util.Random(193)
    for (_ <- 0 until 50) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      val (lo, hi, _) = sp.coveringWindow(l, r)
      assert(lo <= l && r <= hi)
      // Engels-style guarantee: window length <= 2*beta*s (+ rounding slack).
      val s = r - l + 1
      if (hi - lo + 1 > sp.windows.map(w => w._2 - w._1 + 1).min)
        assert(hi - lo + 1 <= math.max(64, 4 * s + 4), s"range [$l,$r] got window [$lo,$hi]")
    }
  }

  test("results are always in-range") {
    val rnd = new java.util.Random(194)
    for (_ <- 0 until 20) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      assert(sp.search(queries(0), l, r, 10, 60).forall(c => c.id >= l && c.id <= r))
    }
  }

  test("achieves >= 0.85 recall at beam 150 across range scales") {
    val rnd = new java.util.Random(195)
    for (len <- Seq(n, n / 4, n / 16)) {
      val ranges = queries.map { _ => val l = rnd.nextInt(n - len + 1); (l, l + len - 1) }
      val gt = queries.indices.toArray.map(qi =>
        BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10))
      val got = queries.indices.toArray.map(qi =>
        sp.search(queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 150).map(_.id))
      assert(GroundTruth.meanRecall(gt, got) >= 0.85, s"len=$len")
    }
  }

  test("fewer than 64 objects get one full-range window and searches keep the result contract") {
    val small = TestData.clusteredVs(50, 8, clusters = 3, seed = 196)
    val sp50 = new SuperPostFiltering(small, m = 10, efConstruction = 60)
    assert(sp50.windows.map(w => (w._1, w._2)).toSeq == Seq((0, 49)))
    for (q <- TestData.nearQueries(small, 5, seed = 197); (l, r) <- Seq((0, 49), (20, 24))) {
      val res = sp50.search(q, l, r, 10, 60)
      val ids = res.map(_.id)
      assert(ids.length == math.min(10, r - l + 1), s"range [$l,$r]")
      assert(ids.forall(i => i >= l && i <= r), s"range [$l,$r]")
      assert(ids.distinct.length == ids.length, s"range [$l,$r]")
      for (Array(a, b) <- res.sliding(2))
        assert(SortedList.less(a.dist, a.id, b.dist, b.id), s"range [$l,$r]: $a before $b")
    }
  }

  test("memory exceeds a single whole-set index (the paper's Table 2 ordering)") {
    val single = repro.graph.Hnsw.buildAll(vs, m = 10, efConstruction = 60)
    assert(sp.sizeBytes > single.sizeBytes)
  }
}
