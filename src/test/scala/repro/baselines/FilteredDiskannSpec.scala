package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.data.GroundTruth
import repro.graph.{BruteForce, RankBlocks}

class FilteredDiskannSpec extends AnyFunSuite {

  private val n = 500
  private val vs = TestData.clusteredVs(n, 8, clusters = 6, seed = 211)
  private val queries = TestData.nearQueries(vs, 15, seed = 212)
  private lazy val fv = new FilteredVamana(vs, buckets = 10, m = 10, efConstruction = 60)
  private lazy val sv = new StitchedVamana(vs, buckets = 10, m = 10, efConstruction = 60)

  test("blockOf maps ranks into 10 ordered buckets") {
    assert(RankBlocks.blockOf(n, 10, 0) == 0)
    assert(RankBlocks.blockOf(n, 10, n - 1) == 9)
    val bs = (0 until n).map(RankBlocks.blockOf(n, 10, _))
    assert(bs.sliding(2).forall { case Seq(a, b) => b >= a; case _ => true })
    assert(bs.distinct.length == 10)
  }

  // When the part count divides n, every rounding of a rank's block agrees
  // with the bounds, so this spec's n = 500 (10 buckets) and
  // ResultContractSpec's 512 (8) cannot catch a blockOf that disagrees with
  // bounds. Hence the uneven sizes here and at n = 70 below.
  test("block bounds tile the rank space and blockOf inverts them") {
    for ((bn, parts) <- Seq((4096, 10), (2048, 10), (700, 6), (500, 10), (70, 6))) {
      val bounds = RankBlocks.bounds(bn, parts)
      assert(bounds.head._1 == 0 && bounds.last._2 == bn - 1, s"n = $bn, $parts parts")
      for (Array((_, h), (l2, _)) <- bounds.sliding(2)) assert(l2 == h + 1, s"n = $bn, $parts parts")
      for (i <- 0 until bn) {
        val (lo, hi) = bounds(RankBlocks.blockOf(bn, parts, i))
        assert(lo <= i && i <= hi, s"rank $i at n = $bn, $parts parts")
      }
    }
  }

  test("StitchedVamana: each bucket's first rank is found alone when 6 buckets do not divide n = 70") {
    val small = TestData.clusteredVs(70, 8, clusters = 3, seed = 215)
    val stitched = new StitchedVamana(small, buckets = 6, m = 10, efConstruction = 60)
    for ((lo, hi) <- RankBlocks.bounds(70, 6)) {
      val got = stitched.search(queries(0), lo, lo, 10, hi - lo + 1).map(_.id)
      assert(got.toSeq == Seq(lo), s"range [$lo, $lo]")
    }
  }

  for ((name, search) <- Seq[(String, (Array[Float], Int, Int, Int, Int) => Array[repro.graph.Candidate])](
         ("FilteredVamana", (q, l, r, k, b) => fv.search(q, l, r, k, b)),
         ("StitchedVamana", (q, l, r, k, b) => sv.search(q, l, r, k, b)))) {

    test(s"$name: results are always in-range") {
      val rnd = new java.util.Random(213)
      for (_ <- 0 until 20) {
        val a = rnd.nextInt(n); val b = rnd.nextInt(n)
        val (l, r) = (math.min(a, b), math.max(a, b))
        assert(search(queries(0), l, r, 10, 60).forall(c => c.id >= l && c.id <= r))
      }
    }

    test(s"$name: bucket-aligned large ranges reach >= 0.8 recall") {
      // Range = buckets 2..7 exactly: labels match the range perfectly.
      val bounds = RankBlocks.bounds(n, 10)
      val (l, r) = (bounds(2)._1, bounds(7)._2)
      val gt = queries.map(q => BruteForce.topKIds(vs, q, l, r, 10))
      val got = queries.map(q => search(q, l, r, 10, 150).map(_.id))
      assert(GroundTruth.meanRecall(gt, got) >= 0.8)
    }

    test(s"$name: ranges far smaller than a bucket degrade at practical beams") {
      val bounds = RankBlocks.bounds(n, 10)
      val rnd = new java.util.Random(214)
      val len = 12
      val ranges = queries.map { _ =>
        val (bl, bh) = bounds(rnd.nextInt(10))
        val l = bl + rnd.nextInt(bh - bl + 1 - len)
        (l, l + len - 1)
      }
      val gt = queries.indices.toArray.map(qi =>
        BruteForce.topKIds(vs, queries(qi), ranges(qi)._1, ranges(qi)._2, 10))
      val got = queries.indices.toArray.map(qi =>
        search(queries(qi), ranges(qi)._1, ranges(qi)._2, 10, 20).map(_.id))
      val recall = GroundTruth.meanRecall(gt, got)
      assert(recall < 0.95, s"$name expected the small-range failure mode, got $recall")
    }
  }

  test("StitchedVamana edges stay within their bucket (block-diagonal stitch)") {
    val bounds = RankBlocks.bounds(n, 10)
    for ((g, b) <- sv.graphs.zipWithIndex; u <- bounds(b)._1 to bounds(b)._2)
      assert(g.neighbors(u).forall(v => v >= bounds(b)._1 && v <= bounds(b)._2))
  }

  test("sizeBytes is 4 bytes per live edge") {
    assert(fv.sizeBytes == fv.graph.liveEdges * 4)
    assert(sv.sizeBytes == sv.graphs.map(_.liveEdges).sum * 4)
  }

  test("FilteredVamana inserts every point exactly once (random order)") {
    assert(fv.graph.inserted.sorted == (0 until n))
    assert(fv.graph.inserted != (0 until n)) // order is shuffled
  }
}
