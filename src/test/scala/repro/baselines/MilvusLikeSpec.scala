package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.BruteForce

class MilvusLikeSpec extends AnyFunSuite {

  private val n = 600
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 181)
  private val queries = TestData.nearQueries(vs, 15, seed = 182)
  private lazy val mv = new MilvusLike(vs, parts = 6, m = 10, efConstruction = 60)

  test("partitions cover the rank space disjointly") {
    val mv2 = new MilvusLike(TestData.randomVs(100, 4, seed = 183), parts = 7, m = 4,
      efConstruction = 10)
    assert(mv2.indexes.length == 7)
  }

  test("results are always in-range") {
    val rnd = new java.util.Random(184)
    for (_ <- 0 until 20) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      assert(mv.search(queries(0), l, r, 10, 60).forall(c => c.id >= l && c.id <= r))
    }
  }

  test("small ranges fall back to exact brute force (cost model)") {
    val (l, r) = (100, 110)
    assert(r - l + 1 <= mv.bruteForceThreshold)
    for (q <- queries.take(5))
      assert(mv.search(q, l, r, 10, 10).map(_.id).toSeq ==
        BruteForce.topKIds(vs, q, l, r, 10).toSeq)
  }

  test("large ranges search partitions and reach >= 0.85 recall at beam 120") {
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, n - 1, 10))
    val got = queries.map(q => mv.search(q, 0, n - 1, 10, 120).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.85)
  }

  test("mid-scale ranges crossing partition boundaries work") {
    val (l, r) = (150, 450)
    val gt = queries.map(q => BruteForce.topKIds(vs, q, l, r, 10))
    val got = queries.map(q => mv.search(q, l, r, 10, 120).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.8)
  }

  test("extraAdmit restricts results (multi-attribute extension)") {
    val got = mv.search(queries(0), 0, n - 1, 10, 80, extraAdmit = _ % 2 == 0)
    assert(got.forall(_.id % 2 == 0))
  }

  test("sizeBytes sums the partition indexes") {
    assert(mv.sizeBytes == mv.indexes.map(_.sizeBytes).sum)
    assert(mv.sizeBytes > 0)
  }
}
