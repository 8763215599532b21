package repro.bench

import org.apache.spark.sql.SparkSession
import repro.data.{GroundTruth, RfDataset, VectorData, Workload}
import scala.collection.mutable

/** Per-JVM shared bench state: one SparkSession, the five dataset analogs,
  * every built index, and verified exact ground truths — computed lazily and
  * cached so that the table/figure benches (which all share the same indexes
  * and workloads) don't rebuild anything.
  *
  * Scale knobs come from the environment so the same harness serves smoke
  * tests (`REPRO_BENCH_N=2048 REPRO_BENCH_Q=100`) and the full bench run
  * (default n = 4096, 200 queries, k = 10 — the paper's k).
  */
object BenchContext {

  val n: Int = sys.env.getOrElse("REPRO_BENCH_N", "4096").toInt
  val nQueries: Int = sys.env.getOrElse("REPRO_BENCH_Q", "200").toInt
  val k: Int = 10

  lazy val spark: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-bench")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  lazy val datasets: Seq[RfDataset] = VectorData.datasets(spark, n, nQueries)

  private val suiteCache = mutable.HashMap.empty[String, MethodSuite]
  def suite(ds: RfDataset): MethodSuite =
    suiteCache.getOrElseUpdate(ds.name, MethodSuite.build(spark, ds))

  /** The four single-attribute workloads of Figure 2. */
  val workloadSpecs: Seq[(String, Int => Array[Workload.RangeQuery])] = Seq(
    ("mixed", nn => Workload.mixed(nn, nQueries)),
    ("large-2^-2", nn => Workload.fixed(nn, nQueries, 2)),
    ("moderate-2^-5", nn => Workload.fixed(nn, nQueries, 5)),
    ("small-2^-8", nn => Workload.fixed(nn, nQueries, 8)),
  )

  final case class PreparedWorkload(
      name: String,
      ranges: Array[(Int, Int)],
      gt: Array[Array[Int]],
  )

  private val workloadCache = mutable.HashMap.empty[(String, String), PreparedWorkload]

  /** Workload + Spark-computed exact ground truth for a dataset. */
  def workload(ds: RfDataset, wname: String): PreparedWorkload =
    workloadCache.getOrElseUpdate((ds.name, wname), {
      val gen = workloadSpecs.find(_._1 == wname).get._2
      val ranges = gen(ds.n).map(rq => (rq.L, rq.R))
      val gt = GroundTruth.computeSpark(spark, ds.vs, ds.queries, ranges, k)
      PreparedWorkload(wname, ranges, gt)
    })
}
