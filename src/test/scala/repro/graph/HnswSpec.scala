package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth

class HnswSpec extends AnyFunSuite {

  private val vs = TestData.clusteredVs(600, 12, clusters = 8, seed = 51)
  private val queries = TestData.nearQueries(vs, 30, seed = 52)
  private lazy val h = Hnsw.buildAll(vs, m = 12, efConstruction = 80)

  test("high-ef search reaches >= 0.95 mean recall@10 on clustered data") {
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, vs.n - 1, 10))
    val got = queries.map(q => h.search(q, 10, ef = 120).map(_.id))
    val r = GroundTruth.meanRecall(gt, got)
    assert(r >= 0.95, s"recall $r")
  }

  test("recall grows with ef") {
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, vs.n - 1, 10))
    val rs = Seq(10, 40, 160).map { ef =>
      GroundTruth.meanRecall(gt, queries.map(q => h.search(q, 10, ef).map(_.id)))
    }
    assert(rs.last >= rs.head)
    assert(rs.last >= 0.9)
  }

  test("base-layer degrees respect the 2M cap") {
    for (u <- 0 until vs.n) assert(h.degree(0, u) <= 24, s"node $u degree ${h.degree(0, u)}")
  }

  test("upper-level degrees respect the M cap") {
    assert(h.maxLevel >= 1)
    for (l <- 1 to h.maxLevel; u <- 0 until vs.n)
      assert(h.degree(l, u) <= 12, s"level $l node $u degree ${h.degree(l, u)}")
  }

  test("build is deterministic given the seed") {
    val a = Hnsw.build(vs, 0, 199, m = 8, efConstruction = 40)
    val b = Hnsw.build(vs, 0, 199, m = 8, efConstruction = 40)
    assert(a.edgeCount == b.edgeCount)
    for (u <- 0 until 200) assert(a.baseNeighbors(u).toSeq == b.baseNeighbors(u).toSeq)
  }

  test("a range-sliced build only contains in-range nodes") {
    val hr = Hnsw.build(vs, 100, 299, m = 8, efConstruction = 40)
    for (u <- 100 to 299)
      assert(hr.baseNeighbors(u).forall(v => v >= 100 && v <= 299))
    val res = hr.search(queries(0), 10, 60)
    assert(res.forall(c => c.id >= 100 && c.id <= 299))
  }

  test("range-sliced search matches brute force on that range at high ef") {
    val hr = Hnsw.build(vs, 100, 299, m = 12, efConstruction = 80)
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 100, 299, 10))
    val got = queries.map(q => hr.search(q, 10, 150).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.95)
  }

  test("sizeBytes equals 4 bytes per stored edge") {
    assert(h.sizeBytes == h.edgeCount * 4)
  }

  test("entry point is a valid in-range node") {
    assert(h.entry >= 0 && h.entry < vs.n)
    assert(h.maxLevel >= 0)
  }

  test("singleton index returns its only point") {
    val h1 = Hnsw.build(vs, 5, 5, m = 4, efConstruction = 10)
    val res = h1.search(queries(0), 3, 10)
    assert(res.map(_.id).toSeq == Seq(5))
  }

  test("admit filter yields only admitted ids (post-filter strategy)") {
    val res = h.search(queries(1), 10, 100, admit = i => i >= 200 && i <= 400)
    assert(res.forall(c => c.id >= 200 && c.id <= 400))
    assert(res.nonEmpty)
  }

  test("searchBase from a chosen entry works with in-filter visit") {
    val res = h.searchBase(queries(2), Seq(300), 10, 80,
      visit = i => i >= 200 && i <= 400, admit = i => i >= 200 && i <= 400)
    assert(res.forall(c => c.id >= 200 && c.id <= 400))
  }

  test("stats are populated during search") {
    val s = new SearchStats
    h.search(queries(0), 10, 50, stats = s)
    assert(s.distComputations > 10)
  }
}
