package repro.graph

/** The one way the ranks [0, n) are cut into `parts` contiguous blocks:
  * Filtered-DiskANN's buckets, Milvus' partitions, SeRF's left endpoints and
  * the ground truth's Spark tasks. Block b is [n·b / parts, n·(b+1) / parts),
  * rounded down at both ends.
  */
object RankBlocks {

  /** Inclusive (lo, hi) of every block, in rank order. */
  def bounds(n: Int, parts: Int): Array[(Int, Int)] =
    Array.tabulate(parts) { b =>
      ((n.toLong * b / parts).toInt, (n.toLong * (b + 1) / parts).toInt - 1)
    }

  /** The block whose bounds hold rank i: the b with n·b < (i+1)·parts <= n·(b+1). */
  def blockOf(n: Int, parts: Int, i: Int): Int =
    (((i + 1).toLong * parts - 1) / n).toInt
}
