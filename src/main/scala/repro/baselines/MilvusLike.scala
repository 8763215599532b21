package repro.baselines

import repro.graph.{BruteForce, Candidate, Hnsw, RankBlocks, VecStore}

/** Milvus-style baseline (Section 2.2 / 5.1): the dataset is partitioned
  * into `parts` subsets of consecutive attribute values (the
  * [[RankBlocks]] of Filtered-DiskANN's buckets), an HNSW is built
  * per partition, and a per-query cost model picks the strategy — brute
  * force (pre-filter) when the range is small, otherwise a filtered graph
  * search on every partition that intersects the range, results merged.
  * Unselective queries therefore pay one graph search per partition, and
  * boundary partitions still visit out-of-range objects — the behaviour the
  * paper's Figure 2 exhibits.
  */
final class MilvusLike(
    val vs: VecStore,
    val parts: Int,
    m: Int,
    efConstruction: Int,
) {
  val indexes: Array[Hnsw] =
    RankBlocks.bounds(vs.n, parts).map { case (lo, hi) =>
      Hnsw.build(vs, lo, hi, m, efConstruction)
    }

  /** Cost-model threshold: below this many in-range objects, brute force
    * wins (mirrors Milvus' plan selection).
    */
  val bruteForceThreshold: Int = math.max(64, vs.n / 64)

  /** `extraAdmit` carries the second-attribute predicate (Milvus supports
    * generic conjunctive filters via its bitset mechanism).
    */
  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             extraAdmit: Int => Boolean = _ => true): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    if (R - L + 1 <= bruteForceThreshold)
      return BruteForce.topK(vs, q, L, R, k, extraAdmit)
    // The partitions that intersect [L, R] are those from L's to R's.
    val first = RankBlocks.blockOf(vs.n, parts, L)
    val lists = (first to RankBlocks.blockOf(vs.n, parts, R)).map { p =>
      indexes(p).search(q, k, beam, admit = i => i >= L && i <= R && extraAdmit(i))
    }
    BruteForce.mergeTopK(lists, k)
  }

  def sizeBytes: Long = indexes.map(_.sizeBytes).sum
}
