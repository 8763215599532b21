package repro.baselines

import java.util.SplittableRandom
import repro.graph.{BruteForce, Candidate, IncrementalGraph, RankBlocks, VecStore}

/** Filtered-DiskANN adapted to range filtering exactly as the paper (and
  * SeRF before it) does: the full rank range [0, n) is cut by
  * [[RankBlocks]] into `buckets` consecutive buckets, each assigned a label;
  * a query's labels are the buckets that overlap its range. Both variants
  * search with the filtered greedy convention — traversal restricted to
  * nodes whose label is a query label, entered from one medoid per query
  * label, admission restricted to the true range. Because a bucket is
  * usually much longer than a small range, small/mixed fractions drown in
  * out-of-range same-label objects — the failure the paper reports.
  */
object FilteredDiskann {

  /** RobustPrune's α of both Vamana builds. */
  private[baselines] val Alpha = 1.2f

  /** Ids [lo, hi] in a Fisher–Yates order from `seed`: the Vamana builds' insertion order. */
  private[baselines] def shuffled(lo: Int, hi: Int, seed: Long): Seq[Int] = {
    val rnd = new SplittableRandom(seed)
    val a = (lo to hi).toArray
    var i = a.length - 1
    while (i > 0) { val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
    a.toSeq
  }
}

/** FilteredVamana: one α-robust Vamana graph over the whole dataset (random
  * insertion order), searched with the label filter.
  */
final class FilteredVamana(val vs: VecStore, val buckets: Int, m: Int, efConstruction: Int) {
  val graph: IncrementalGraph = IncrementalGraph.build(
    vs, FilteredDiskann.shuffled(0, vs.n - 1, seed = 19L), m, efConstruction, FilteredDiskann.Alpha)
  private val bounds = RankBlocks.bounds(vs.n, buckets)

  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    val bLo = RankBlocks.blockOf(vs.n, buckets, L)
    val bHi = RankBlocks.blockOf(vs.n, buckets, R)
    val entries = (bLo to bHi).map { b => val (lo, hi) = bounds(b); lo + (hi - lo) / 2 }
    val vLo = bounds(bLo)._1
    val vHi = bounds(bHi)._2
    graph.search(q, entries, k, beam,
      visit = i => i >= vLo && i <= vHi,
      admit = i => i >= L && i <= R)
  }

  /** Index bytes: 4 per live neighbor id (paper-style accounting). */
  def sizeBytes: Long = graph.liveEdges * 4L
}

/** StitchedVamana: an independent Vamana graph per bucket, stitched into one
  * index (single-label points make the stitched graph block-diagonal; the
  * filtered search walks each overlapped bucket from its own entry).
  */
final class StitchedVamana(val vs: VecStore, val buckets: Int, m: Int, efConstruction: Int) {
  private val bounds = RankBlocks.bounds(vs.n, buckets)
  val graphs: Array[IncrementalGraph] = bounds.zipWithIndex.map { case ((lo, hi), b) =>
    IncrementalGraph.build(vs, FilteredDiskann.shuffled(lo, hi, seed = 23L + b), m, efConstruction,
      FilteredDiskann.Alpha)
  }

  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    val bLo = RankBlocks.blockOf(vs.n, buckets, L)
    val bHi = RankBlocks.blockOf(vs.n, buckets, R)
    val lists = (bLo to bHi).map { b =>
      val (lo, hi) = bounds(b)
      graphs(b).search(q, Seq(lo + (hi - lo) / 2), k, beam,
        admit = i => i >= L && i <= R)
    }
    BruteForce.mergeTopK(lists, k)
  }

  /** Index bytes: 4 per live neighbor id (paper-style accounting). */
  def sizeBytes: Long = graphs.map(_.liveEdges * 4L).sum
}
