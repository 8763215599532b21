package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.{BruteForce, SearchStats}

class BasicSearchSpec extends AnyFunSuite {

  private val n = 512
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 111)
  private val queries = TestData.nearQueries(vs, 20, seed = 112)
  private lazy val g = ElementalGraphBuilder.build(vs, m = 8, ef = 50)

  test("results are in-range and within k") {
    val rnd = new java.util.Random(113)
    for (_ <- 0 until 30) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      val (l, r) = (math.min(a, b), math.max(a, b))
      val got = BasicSearch.search(vs, g, queries(0), l, r, 10, 60)
      assert(got.length <= 10)
      assert(got.forall(c => c.id >= l && c.id <= r))
    }
  }

  test("achieves >= 0.85 recall at beam 120 on random moderate ranges") {
    val rnd = new java.util.Random(114)
    val ranges = Array.fill(queries.length) {
      val l = rnd.nextInt(n - 128)
      (l, l + 127)
    }
    val gt = queries.indices.toArray.map { qi =>
      BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10)
    }
    val got = queries.indices.toArray.map { qi =>
      BasicSearch.search(vs, g, queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 120).map(_.id)
    }
    assert(GroundTruth.meanRecall(gt, got) >= 0.85)
  }

  test("exactly recovers singleton canonical pieces") {
    // A range consisting only of leaves (length 2 crossing a boundary).
    val got = BasicSearch.search(vs, g, queries(1), 255, 256, 5, 20)
    assert(got.map(_.id).sorted.toSeq == Seq(255, 256))
  }

  test("full-range BasicSearch equals a root-graph search") {
    val got = BasicSearch.search(vs, g, queries(2), 0, n - 1, 10, 100).map(_.id)
    val root = new IRangeGraph(vs, g).search(queries(2), 0, n - 1, 10, 100).map(_.id)
    // Both search the very same layer-0 graph from the same entry.
    assert(got.toSeq == root.toSeq)
  }

  test("merged results are globally sorted and deduplicated") {
    val got = BasicSearch.search(vs, g, queries(3), 50, 450, 20, 80)
    assert(got.map(_.id).distinct.length == got.length)
    assert(got.sliding(2).forall {
      case Array(a, b) => a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
      case _ => true
    })
  }

  test("distance computations include singleton canonical segments") {
    // [255, 256] is two singleton leaves.
    val leaves = new SearchStats
    BasicSearch.search(vs, g, queries(4), 255, 256, 5, 20, leaves)
    assert(leaves.distComputations == 2)
    // [255, 260] is leaf 255, segment [256, 259] and leaf 260.
    val pieces = SegmentTree.decompose(n, 255, 260)
    assert(pieces.count { case (_, l, r) => l == r } == 2)
    val expected = pieces.map { case (_, l, r) =>
      if (l == r) 1L
      else {
        val one = new SearchStats
        BasicSearch.search(vs, g, queries(4), l, r, 5, 20, one)
        one.distComputations
      }
    }.sum
    val mixed = new SearchStats
    BasicSearch.search(vs, g, queries(4), 255, 260, 5, 20, mixed)
    assert(mixed.distComputations == expected)
  }
}
