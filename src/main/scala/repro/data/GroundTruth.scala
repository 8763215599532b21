package repro.data

import org.apache.spark.sql.SparkSession
import repro.graph.{BruteForce, Candidate, VecStore}
import scala.collection.mutable

/** Exact range-filtered top-k ground truth.
  *
  * The Spark path is the canonical distributed-dataflow computation: the
  * dataset is a Dataset[(rank, vector)], queries are broadcast, each
  * partition emits its local top-k per query (bounded heaps — at most
  * partitions × queries × k rows ever cross the wire), and the driver merges.
  * Tests assert the Spark result equals both the local scan and the DuckDB
  * oracle; every recall number in the benches is measured against this.
  */
object GroundTruth {

  /** Exact top-k ids per query over ranks [L, R] (and an optional extra
    * predicate for the multi-attribute case), sorted by (dist, id).
    */
  def computeLocal(vs: VecStore, queries: Array[Array[Float]],
                   ranges: Array[(Int, Int)], k: Int,
                   pred: (Int, Int) => Boolean = (_, _) => true): Array[Array[Int]] =
    queries.indices.toArray.map { qid =>
      val (l, r) = ranges(qid)
      BruteForce.topKIds(vs, queries(qid), l, r, k, i => pred(qid, i))
    }

  /** Spark implementation — see class doc. `attr2Rank`/`ranges2` activate
    * the conjunctive second-attribute predicate.
    */
  def computeSpark(spark: SparkSession, vs: VecStore,
                   queries: Array[Array[Float]], ranges: Array[(Int, Int)], k: Int,
                   attr2Rank: Array[Int] = null,
                   ranges2: Array[(Int, Int)] = null): Array[Array[Int]] = {
    import spark.implicits._
    val dim = vs.dim
    val rows = (0 until vs.n).map { i =>
      val a2 = if (attr2Rank == null) -1 else attr2Rank(i)
      (i, vs.vector(i), a2)
    }
    val bq = spark.sparkContext.broadcast(queries)
    val br = spark.sparkContext.broadcast(ranges)
    val br2 = spark.sparkContext.broadcast(ranges2)
    val kk = k

    val partials = spark
      .createDataset(rows)
      .repartition(spark.sparkContext.defaultParallelism)
      .mapPartitions { it =>
        val qs = bq.value
        val rs = br.value
        val rs2 = br2.value
        val ord = BruteForce.candidateOrdering
        val heaps = Array.fill(qs.length)(new mutable.PriorityQueue[Candidate]()(ord))
        it.foreach { case (id, vec, a2) =>
          var qid = 0
          while (qid < qs.length) {
            val (l, r) = rs(qid)
            val ok2 = rs2 == null || { val (l2, r2) = rs2(qid); a2 >= l2 && a2 <= r2 }
            if (id >= l && id <= r && ok2) {
              val d = VecStore.dist2(vec, qs(qid))
              val h = heaps(qid)
              if (h.size < kk) h.enqueue(Candidate(id, d))
              else if (ord.lt(Candidate(id, d), h.head)) { h.dequeue(); h.enqueue(Candidate(id, d)) }
            }
            qid += 1
          }
        }
        heaps.iterator.zipWithIndex.flatMap { case (h, qid) =>
          h.iterator.map(c => (qid, c.id, c.dist))
        }
      }
      .collect()

    val byQuery = Array.fill(queries.length)(mutable.ArrayBuffer.empty[Candidate])
    partials.foreach { case (qid, id, d) => byQuery(qid) += Candidate(id, d) }
    byQuery.map(_.sorted(BruteForce.candidateOrdering).take(k).map(_.id).toArray)
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
