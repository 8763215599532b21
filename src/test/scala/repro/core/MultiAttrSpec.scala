package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.BruteForce

class MultiAttrSpec extends AnyFunSuite {

  private val n = 512
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 121)
  private val queries = TestData.nearQueries(vs, 20, seed = 122)
  private lazy val ir = new IRangeGraph(vs, ElementalGraphBuilder.build(vs, m = 8, ef = 50))

  // Independent second attribute: a fixed pseudo-random permutation of ranks.
  private val attr2Rank: Array[Int] = {
    val rnd = new java.util.Random(123)
    val a = Array.tabulate(n)(identity)
    for (i <- (1 until n).reverse) {
      val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t
    }
    a
  }

  private def gtFor(qi: Int, l1: Int, r1: Int, l2: Int, r2: Int, k: Int): Array[Int] =
    BruteForce.topKIds(vs, queries(qi), l1, r1, k,
      i => attr2Rank(i) >= l2 && attr2Rank(i) <= r2)

  private val ranges: Array[(Int, Int, Int, Int)] = {
    val rnd = new java.util.Random(124)
    Array.fill(queries.length) {
      val len = n / 3
      val l1 = rnd.nextInt(n - len); val l2 = rnd.nextInt(n - len)
      (l1, l1 + len - 1, l2, l2 + len - 1)
    }
  }

  for (strategy <- Seq[(String, MultiAttr.Strategy)](
         ("PostFilter", MultiAttr.PostFilter),
         ("Probabilistic", MultiAttr.Probabilistic(7L)))) {
    test(s"${strategy._1}: all results satisfy both predicates") {
      for (qi <- queries.indices.take(10)) {
        val (l1, r1, l2, r2) = ranges(qi)
        val got = MultiAttr.search(ir, attr2Rank, queries(qi), l1, r1, l2, r2, 10, 80, strategy._2)
        assert(got.forall(c => c.id >= l1 && c.id <= r1))
        assert(got.forall(c => attr2Rank(c.id) >= l2 && attr2Rank(c.id) <= r2))
      }
    }
  }

  test("InFilter: results satisfy both predicates") {
    for (qi <- queries.indices.take(10)) {
      val (l1, r1, l2, r2) = ranges(qi)
      val got = MultiAttr.search(ir, attr2Rank, queries(qi), l1, r1, l2, r2, 10, 80, MultiAttr.InFilter)
      assert(got.forall(c => c.id >= l1 && c.id <= r1 &&
        attr2Rank(c.id) >= l2 && attr2Rank(c.id) <= r2))
    }
  }

  test("PostFilter reaches >= 0.85 recall at beam 200 on moderate conjunctions") {
    val k = 10
    val got = queries.indices.toArray.map { qi =>
      val (l1, r1, l2, r2) = ranges(qi)
      MultiAttr.search(ir, attr2Rank, queries(qi), l1, r1, l2, r2, k, 200,
        MultiAttr.PostFilter).map(_.id)
    }
    val gt = queries.indices.toArray.map { qi =>
      val (l1, r1, l2, r2) = ranges(qi)
      gtFor(qi, l1, r1, l2, r2, k)
    }
    assert(GroundTruth.meanRecall(gt, got) >= 0.85)
  }

  test("Probabilistic recall is at least In-filtering recall at equal beam") {
    val k = 10
    def recallOf(s: MultiAttr.Strategy): Double = {
      val got = queries.indices.toArray.map { qi =>
        val (l1, r1, l2, r2) = ranges(qi)
        MultiAttr.search(ir, attr2Rank, queries(qi), l1, r1, l2, r2, k, 100, s).map(_.id)
      }
      val gt = queries.indices.toArray.map { qi =>
        val (l1, r1, l2, r2) = ranges(qi)
        gtFor(qi, l1, r1, l2, r2, k)
      }
      GroundTruth.meanRecall(gt, got)
    }
    val rIn = recallOf(MultiAttr.InFilter)
    val rProb = recallOf(MultiAttr.Probabilistic(9L))
    assert(rProb >= rIn - 0.05, s"prob=$rProb in=$rIn")
  }

  test("Probabilistic is deterministic given the seed") {
    val (l1, r1, l2, r2) = ranges(0)
    val a = MultiAttr.search(ir, attr2Rank, queries(0), l1, r1, l2, r2, 10, 80,
      MultiAttr.Probabilistic(5L)).map(_.id).toSeq
    val b = MultiAttr.search(ir, attr2Rank, queries(0), l1, r1, l2, r2, 10, 80,
      MultiAttr.Probabilistic(5L)).map(_.id).toSeq
    assert(a == b)
  }

  test("empty conjunction returns empty results") {
    // Second range matches nothing reachable.
    val got = MultiAttr.search(ir, attr2Rank, queries(0), 0, 10, n - 1, n - 1, 10, 50,
      MultiAttr.PostFilter)
    assert(got.forall(c => attr2Rank(c.id) == n - 1))
  }

  test("malformed query input is rejected with a clear error") {
    def run(q: Array[Float] = queries(0), l1: Int = 0, r1: Int = 99,
            l2: Int = 0, r2: Int = 99, k: Int = 10) =
      MultiAttr.search(ir, attr2Rank, q, l1, r1, l2, r2, k, 50, MultiAttr.PostFilter)
    for ((what, call) <- Seq[(String, () => Any)](
           "bad range" -> (() => run(l1 = -1)),
           "bad range" -> (() => run(r1 = n)),
           "bad range" -> (() => run(l1 = 9, r1 = 3)),
           "second-attribute" -> (() => run(l2 = -1)),
           "second-attribute" -> (() => run(r2 = n)),
           "second-attribute" -> (() => run(l2 = 9, r2 = 3)),
           "dimension" -> (() => run(q = queries(0).take(7))),
           "dimension" -> (() => run(q = queries(0) :+ 0f)),
           "k must be" -> (() => run(k = 0)),
           "not finite" -> (() => run(q = queries(0).updated(0, Float.NaN))),
           "not finite" -> (() => run(q = queries(0).updated(2, Float.PositiveInfinity))),
           "not finite" -> (() => run(q = queries(0).updated(4, Float.NegativeInfinity))))) {
      val e = intercept[IllegalArgumentException](call())
      assert(e.getMessage.contains(what), e.getMessage)
    }
  }

  test("second-attribute ranks of the wrong length are rejected under every strategy") {
    for (strategy <- Seq(MultiAttr.PostFilter, MultiAttr.InFilter, MultiAttr.Probabilistic(7L));
         ranks <- Seq(attr2Rank.take(n / 2), attr2Rank :+ 0)) {
      val e = intercept[IllegalArgumentException](
        MultiAttr.search(ir, ranks, queries(0), 0, n - 1, 0, n / 2 - 1, 10, 50, strategy))
      assert(e.getMessage.contains("second-attribute ranks"), e.getMessage)
    }
  }
}
