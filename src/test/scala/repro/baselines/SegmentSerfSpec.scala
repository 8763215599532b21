package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.BruteForce

class SegmentSerfSpec extends AnyFunSuite {

  private val n = 500
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 201)
  private val queries = TestData.nearQueries(vs, 15, seed = 202)
  private lazy val serf = new SegmentSerf(vs, grid = 4, m = 10, efConstruction = 60)

  test("left endpoints start at 0 and ascend") {
    assert(serf.lefts.head == 0)
    assert(serf.lefts.sliding(2).forall { case Array(a, b) => a < b; case _ => true })
  }

  test("results are always in-range") {
    val rnd = new java.util.Random(203)
    for (_ <- 0 until 20) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      assert(serf.search(queries(0), l, r, 10, 60).forall(c => c.id >= l && c.id <= r))
    }
  }

  test("half-bounded ranges [0, R] are handled near-exactly (SeRF's strength)") {
    val rnd = new java.util.Random(204)
    val ranges = queries.map { _ => (0, 50 + rnd.nextInt(n - 50)) }
    val gt = queries.indices.toArray.map(qi =>
      BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10))
    val got = queries.indices.toArray.map(qi =>
      serf.search(queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 150).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.9)
  }

  test("large general ranges achieve reasonable recall") {
    val rnd = new java.util.Random(205)
    val len = n / 2
    val ranges = queries.map { _ => val l = rnd.nextInt(n - len + 1); (l, l + len - 1) }
    val gt = queries.indices.toArray.map(qi =>
      BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10))
    val got = queries.indices.toArray.map(qi =>
      serf.search(queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 150).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.75)
  }

  test("small off-grid ranges degrade (the paper's reported failure mode)") {
    val rnd = new java.util.Random(206)
    val len = math.max(12, n / 32)
    // Place ranges away from recorded left endpoints so the covering suffix
    // is much larger than the range.
    val ranges = queries.map { _ =>
      val l = serf.lefts(1) - len / 2 + rnd.nextInt(8)
      (l, l + len - 1)
    }
    val gt = queries.indices.toArray.map(qi =>
      BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10))
    val got = queries.indices.toArray.map(qi =>
      serf.search(queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 30).map(_.id))
    val recall = GroundTruth.meanRecall(gt, got)
    assert(recall < 0.95, s"expected degradation at small beam, got $recall")
  }

  test("compressed size is below the uncompressed per-endpoint equivalent") {
    // grid graphs store lifespans (12 B/edge) but share edges across all
    // R values — far below materializing one graph per distinct R.
    val single = repro.graph.IncrementalGraph.build(vs, 0 until n, 10, 60)
    assert(serf.sizeBytes < single.liveEdges * 4 * 3 * serf.lefts.length)
  }

  test("sizeBytes is 12 bytes per stored edge, and stored edges >= live edges") {
    assert(serf.sizeBytes == serf.graphs.map(_.storedEdges).sum * 12)
    for (g <- serf.graphs) assert(g.storedEdges >= g.liveEdges) // dead edges are retained
  }

  test("query time t never exposes points beyond R") {
    val got = serf.search(queries(1), 0, 99, 10, 100)
    assert(got.forall(_.id <= 99))
  }
}
