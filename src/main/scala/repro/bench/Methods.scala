package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.{DistributedBuilder, IRangeGraph}
import repro.data.RfDataset
import repro.graph.Hnsw

/** A built RFANN method: name, cost accounting and a search closure
  * `(q, L, R, k, beam) => result ids` — the uniform interface every bench
  * sweeps over.
  */
final case class BuiltMethod(
    name: String,
    indexBytes: Long,
    buildSeconds: Double,
    searchFn: (Array[Float], Int, Int, Int, Int) => Array[Int],
)

/** All single-attribute methods of Section 5.1 built over one dataset, with
  * build times measured like-for-like (sequential, same JVM). The Spark
  * 16-way iRangeGraph build is reported as an extra Table 3 row.
  */
final case class MethodSuite(
    ds: RfDataset,
    irg: IRangeGraph,
    hnswAllBuildSeconds: Double,
    sparkIrgBuildSeconds: Double,
    serf: SegmentSerf,
    milvus: MilvusLike,
    methods: Seq[BuiltMethod],
) {
  def method(name: String): BuiltMethod = methods.find(_.name == name).get
}

object MethodSuite {

  // Index parameters, scaled from the paper's (m = 16/64, EF = 100/400 at
  // n = 1M) to our n = 4096 — documented in DESIGN.md.
  val M = 16
  val EF = 100
  val MilvusParts = 10
  val SerfGrid = 4
  val VamanaBuckets = 10

  def build(spark: SparkSession, ds: RfDataset): MethodSuite = {
    import BenchUtil.{cpuSeconds, seconds}
    val vs = ds.vs

    // Builds are timed in single-thread CPU time (the host steals vCPU in
    // bursts; see BenchUtil.cpuSeconds), which also keeps the node-parallel
    // elemental-graph build on one thread, like every other row of Table 3.
    // The Spark build is multi-threaded, so wall-clock is the only
    // meaningful measure there.
    val (irgGraphs, tIrg) = cpuSeconds(repro.core.ElementalGraphBuilder.build(vs, M, EF))
    val irg = new IRangeGraph(vs, irgGraphs)
    val (sparkGraphs, tSparkIrg) = seconds(DistributedBuilder.build(spark, vs, M, EF))
    val (sparkLayers, irgLayers) = (sparkGraphs.layers, irgGraphs.layers)
    require(sparkLayers.length == irgLayers.length &&
      irgLayers.indices.forall(i => java.util.Arrays.equals(sparkLayers(i), irgLayers(i))),
      "Spark and local builds disagree - determinism broken")
    irgGraphs.validate(vs)

    val (_, tHnsw) = cpuSeconds(Hnsw.buildAll(vs, M, EF))
    val (milvus, tMilvus) = cpuSeconds(new MilvusLike(vs, MilvusParts, M, EF))
    val (superPost, tSuper) = cpuSeconds(new SuperPostFiltering(vs, M, EF))
    val (serf, tSerf) = cpuSeconds(new SegmentSerf(vs, SerfGrid, M, EF))
    val (fVamana, tFv) = cpuSeconds(new FilteredVamana(vs, VamanaBuckets, M, EF))
    val (sVamana, tSv) = cpuSeconds(new StitchedVamana(vs, VamanaBuckets, M, EF))

    val methods = Seq(
      BuiltMethod("iRangeGraph", irg.sizeBytes, tIrg,
        (q, l, r, k, beam) => irg.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("2DSegmentGraph", serf.sizeBytes, tSerf,
        (q, l, r, k, beam) => serf.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("FilteredVamana", fVamana.sizeBytes, tFv,
        (q, l, r, k, beam) => fVamana.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("StitchedVamana", sVamana.sizeBytes, tSv,
        (q, l, r, k, beam) => sVamana.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("Milvus", milvus.sizeBytes, tMilvus,
        (q, l, r, k, beam) => milvus.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("SuperPostfiltering", superPost.sizeBytes, tSuper,
        (q, l, r, k, beam) => superPost.search(q, l, r, k, beam).map(_.id)),
      BuiltMethod("Pre-filtering", 0L, 0.0,
        (q, l, r, k, _) => PreFiltering.search(vs, q, l, r, k).map(_.id)),
    )
    MethodSuite(ds, irg, tHnsw, tSparkIrg, serf, milvus, methods)
  }
}
