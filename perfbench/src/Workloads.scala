package perfbench

import java.util.SplittableRandom
import org.apache.spark.sql.SparkSession
import repro.core.{IRangeGraph, MultiAttr}
import repro.data.{GroundTruth, RfDataset, VectorData, Workload}
import repro.graph.{Candidate, SearchStats}

/** One RFANN query: rank range [l1, r1] on the indexed attribute and, for
  * multi-attribute workloads, rank range [l2, r2] on the second attribute
  * (the full rank range otherwise).
  */
final case class Query(qid: Int, vec: Array[Float], l1: Int, r1: Int, l2: Int, r2: Int)

/** A benchmark workload: which dataset analog, at which size, which query
  * ranges, and which builder sets the index up.
  */
final case class WorkloadSpec(
    name: String,
    dataset: String,
    n: Int,
    multiAttr: Boolean,
    sparkBuild: Boolean,
    ranges: (Int, Long) => Array[(Int, Int, Int, Int)], // (n, seed) => (l1, r1, l2, r2)
)

/** Inputs generated from one `--seed`: the dataset (vectors, attributes and
  * held-out query vectors), the query ranges, the exact ground truth and the
  * per-query seeds of the probabilistic multi-attribute strategy.
  */
final case class Inputs(ds: RfDataset, queries: Array[Query], gt: Array[Array[Int]], probSeed: Long)

object Workloads {

  val K = 10
  val M = 16
  val EF = 100
  val Beam = 20
  val NQueries = 1000

  /** n = 2^11 for every workload, so that a run can build its index three
    * times and still fit the benchmark's time budget (see README.md).
    */
  val N = 2048

  private def single(rs: Array[Workload.RangeQuery], n: Int): Array[(Int, Int, Int, Int)] =
    rs.map(q => (q.L, q.R, 0, n - 1))

  val all: Seq[WorkloadSpec] = Seq(
    // The paper's headline workload; the only one set up by the Spark build.
    WorkloadSpec("mixed", "wit-lite", N, multiAttr = false, sparkBuild = true,
      (n, seed) => single(Workload.mixed(n, NQueries, seed = seed), n)),
    // Cheap distances, 64 objects per range: Algorithm 1 and bookkeeping dominate.
    WorkloadSpec("small-lowdim", "ytaudio-lite", N, multiAttr = false, sparkBuild = false,
      (n, seed) => single(Workload.fixed(n, NQueries, 5, seed = seed), n)),
    // iRangeGraph+: visit/admit filters reject most nodes.
    WorkloadSpec("multiattr", "ytrgb-lite", N, multiAttr = true, sparkBuild = false,
      (n, seed) => Workload.multiAttr(n, NQueries, 2, seed = seed)
        .map(q => (q.L1, q.R1, q.L2, q.R2))),
  )

  def byName(name: String): Option[WorkloadSpec] = all.find(_.name == name)

  /** Every input derives from `seed` and the dataset's own spec seed. */
  def generate(spark: SparkSession, w: WorkloadSpec, seed: Long): (Inputs, Double, Double) = {
    val (_, dim, clusters, specSeed) = VectorData.specs.find(_._1 == w.dataset).get
    val rnd = new SplittableRandom(seed * 1000003L + specSeed)
    val dataSeed = rnd.nextLong()
    val rangeSeed = rnd.nextLong()
    val probSeed = rnd.nextLong()

    val t0 = System.nanoTime()
    val ds = VectorData.generate(spark, w.dataset, w.n, dim, clusters, NQueries, dataSeed)
    val datagenS = (System.nanoTime() - t0) / 1e9
    val rs = w.ranges(w.n, rangeSeed)
    val queries = rs.indices.toArray.map { i =>
      val (l1, r1, l2, r2) = rs(i)
      Query(i, ds.queries(i), l1, r1, l2, r2)
    }

    val t1 = System.nanoTime()
    val ranges1 = rs.map(r => (r._1, r._2))
    val gt =
      if (w.multiAttr)
        GroundTruth.computeSpark(spark, ds.vs, ds.queries, ranges1, K,
          attr2Rank = ds.attr2Rank, ranges2 = rs.map(r => (r._3, r._4)))
      else GroundTruth.computeSpark(spark, ds.vs, ds.queries, ranges1, K)
    val gtS = (System.nanoTime() - t1) / 1e9
    (Inputs(ds, queries, gt, probSeed), datagenS, gtS)
  }

  /** The public search call each workload times. */
  def search(w: WorkloadSpec, in: Inputs, ir: IRangeGraph, q: Query,
             stats: SearchStats = null): Array[Candidate] =
    if (w.multiAttr)
      MultiAttr.search(ir, in.ds.attr2Rank, q.vec, q.l1, q.r1, q.l2, q.r2, K, Beam,
        MultiAttr.Probabilistic(in.probSeed + q.qid), stats)
    else ir.search(q.vec, q.l1, q.r1, K, Beam, stats = stats)

  /** The result contract every method obeys: ids in range (both ranges for
    * multi-attribute queries), distinct, sorted by (distance, id), and, for
    * single-attribute queries, exactly min(k, |range|) results.
    */
  def violatesContract(w: WorkloadSpec, attr2Rank: Array[Int], q: Query,
                       res: Array[Candidate]): Boolean = {
    if (res == null) return true
    val sizeOk =
      if (w.multiAttr) res.length <= K
      else res.length == math.min(K, q.r1 - q.l1 + 1)
    var ok = sizeOk
    var i = 0
    while (ok && i < res.length) {
      val c = res(i)
      if (c.id < q.l1 || c.id > q.r1) ok = false
      else if (w.multiAttr && (attr2Rank(c.id) < q.l2 || attr2Rank(c.id) > q.r2)) ok = false
      else if (i > 0) {
        val p = res(i - 1)
        if (p.dist > c.dist || (p.dist == c.dist && p.id >= c.id)) ok = false
      }
      i += 1
    }
    !(ok && res.map(_.id).distinct.length == res.length)
  }
}
