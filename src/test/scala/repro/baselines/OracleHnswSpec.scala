package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.BruteForce

class OracleHnswSpec extends AnyFunSuite {

  private val n = 400
  private val vs = TestData.clusteredVs(n, 8, clusters = 5, seed = 221)
  private val queries = TestData.nearQueries(vs, 12, seed = 222)
  private val ranges = Array((0, 399), (50, 250), (300, 360), (100, 111))
  private lazy val oracle = new OracleHnsw(vs, ranges, m = 10, efConstruction = 60)

  test("one index per distinct range") {
    assert(oracle.indexes.size == 4)
  }

  test("results are in-range for every materialized range") {
    for ((l, r) <- ranges; q <- queries.take(3))
      assert(oracle.search(q, l, r, 10, 60).forall(c => c.id >= l && c.id <= r))
  }

  test("high-beam search is near-exact on each range (the ideal baseline)") {
    for ((l, r) <- ranges) {
      val gt = queries.map(q => BruteForce.topKIds(vs, q, l, r, 10))
      val got = queries.map(q => oracle.search(q, l, r, 10, 150).map(_.id))
      assert(GroundTruth.meanRecall(gt, got) >= 0.9, s"range [$l,$r]")
    }
  }

  test("unmaterialized range is rejected") {
    intercept[IllegalArgumentException] { oracle.search(queries(0), 1, 2, 10, 50) }
  }

  test("sizeBytes sums all materialized indexes") {
    assert(oracle.sizeBytes == oracle.indexes.valuesIterator.map(_.sizeBytes).sum)
    assert(oracle.sizeBytes > 0)
  }
}
