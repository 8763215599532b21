package repro.data

import org.apache.spark.sql.SparkSession
import repro.graph.{BruteForce, RankBlocks, VecStore}

/** Exact range-filtered top-k ground truth.
  *
  * It runs [[BruteForce.topK]], the exact (distance, id)-ordered scan, on
  * Spark: the ranks are cut into `defaultParallelism` [[RankBlocks]], one
  * task each; a task reads the broadcast vectors and queries and returns its
  * block's top-k per query (at most blocks × queries × k candidates cross the
  * wire, with no shuffle), and the driver merges them with
  * [[BruteForce.mergeTopK]]. Tests assert the result equals both a local scan
  * and the DuckDB oracle; every recall number in the benches is measured
  * against this.
  */
object GroundTruth {

  /** Exact top-k per query — see class doc. `attr2Rank`/`ranges2` activate
    * the conjunctive second-attribute predicate.
    */
  def computeSpark(spark: SparkSession, vs: VecStore,
                   queries: Array[Array[Float]], ranges: Array[(Int, Int)], k: Int,
                   attr2Rank: Array[Int] = null,
                   ranges2: Array[(Int, Int)] = null): Array[Array[Int]] = {
    require(k >= 1, s"k must be >= 1, got $k")
    val sc = spark.sparkContext
    val blocks = RankBlocks.bounds(vs.n, sc.defaultParallelism)
    val input = sc.broadcast((vs, queries, ranges, attr2Rank, ranges2))

    val partials = sc.parallelize(blocks.toSeq, blocks.length).map { case (lo, hi) =>
      val (v, qs, rs, a2, rs2) = input.value
      Array.tabulate(qs.length) { qid =>
        val (l, r) = rs(qid)
        val pred: Int => Boolean =
          if (rs2 == null) _ => true
          else { val (l2, r2) = rs2(qid); i => a2(i) >= l2 && a2(i) <= r2 }
        BruteForce.topK(v, qs(qid), math.max(l, lo), math.min(r, hi), k, pred)
      }
    }.collect()

    Array.tabulate(queries.length)(qid =>
      BruteForce.mergeTopK(partials.toSeq.map(_(qid)), k).map(_.id))
  }

  /** Recall of `got` vs ground truth `gt` for one query:
    * |G ∩ S| / |G| (|G| = min(k, in-range count), per Section 5.1 with the
    * natural correction when fewer than k objects qualify).
    */
  def recall(gt: Array[Int], got: Array[Int]): Double =
    if (gt.isEmpty) 1.0
    else gt.intersect(got).length.toDouble / gt.length

  /** Mean recall over a workload. */
  def meanRecall(gt: Array[Array[Int]], got: Array[Array[Int]]): Double = {
    require(gt.length == got.length)
    if (gt.isEmpty) 1.0 else gt.indices.map(i => recall(gt(i), got(i))).sum / gt.length
  }
}
