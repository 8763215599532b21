package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{DistributedBuilder, ElementalGraphBuilder, ElementalGraphs, IRangeGraph}
import repro.data.GroundTruth
import repro.graph.{Candidate, SearchStats}
import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark entrypoint; perfbench/run.py builds and launches it.
  *
  * `--trace 0` measures the end-to-end metrics: set-up time (median of
  * several index builds), and a closed loop of single-threaded queries for
  * `--seconds`, timed in [[QueryFork]]s. `--trace 1` measures the per-layer
  * metrics: a layer-by-layer
  * build, the Spark build, and traced searches recomposed from the public
  * parts of the search. Either way the last line of stdout is one JSON
  * object; a failed fidelity check aborts with exit code 3 and no result.
  */
object Main {

  /** Index builds per untraced run; set-up time is their median. */
  val SetupRepeats = 3

  /** Recall floor below which a run's output counts as wrong. */
  val MinRecall = 0.8

  final case class Args(workload: WorkloadSpec, seed: Long, seconds: Double, trace: Boolean)

  final case class Metric(name: String, value: Double, unit: String)

  final class FidelityError(msg: String) extends RuntimeException(msg)

  private def fidelity(ok: Boolean, what: => String): Unit =
    if (!ok) throw new FidelityError(what)

  /** Ids of the first pass over the query set, which every later pass must
    * reproduce exactly, plus the pass's contract violations and counters.
    */
  final case class Reference(ids: Array[Array[Int]], violated: Array[Boolean], stats: SearchStats)

  final class Tally { var attempted = 0L; var failed = 0L }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"perfbench: $msg")
        sys.exit(2)
    }
    val spark = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try {
        val (tally, correct, metrics) = run(spark, args)
        println(resultJson(correct, tally, metrics))
        0
      } catch {
        case e: FidelityError =>
          Console.err.println(s"perfbench: fidelity check failed: ${e.getMessage}")
          3
        case NonFatal(e) =>
          e.printStackTrace()
          1
      } finally spark.stop()
    System.exit(code)
  }

  def parseArgs(argv: Array[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Array(k, v) => k -> v }.toMap
    if (argv.length % 2 != 0 || !kv.keySet.subsetOf(Set("--workload", "--seed", "--seconds", "--trace")))
      return Left("usage: --workload NAME --seed N --seconds S --trace 0|1")
    for {
      w <- kv.get("--workload").flatMap(Workloads.byName)
             .toRight(s"--workload must be one of ${Workloads.all.map(_.name).mkString(", ")}")
      seed <- kv.get("--seed").flatMap(_.toLongOption).toRight("--seed must be an integer")
      secs <- kv.get("--seconds").flatMap(_.toDoubleOption).filter(_ > 0)
                .toRight("--seconds must be a positive number")
      trace <- kv.getOrElse("--trace", "0") match {
                 case "0" => Right(false)
                 case "1" => Right(true)
                 case _ => Left("--trace must be 0 or 1")
               }
    } yield Args(w, seed, secs, trace)
  }

  def run(spark: SparkSession, a: Args): (Tally, Boolean, Seq[Metric]) = {
    val w = a.workload
    val (in, datagenS, gtS) = Workloads.generate(spark, w, a.seed)
    println(s"workload ${w.name}: dataset ${w.dataset}, n = ${w.n}, ${in.queries.length} queries, " +
      s"k = ${Workloads.K}, m = ${Workloads.M}, EF = ${Workloads.EF}, beam = ${Workloads.Beam}, seed = ${a.seed}")
    if (a.trace) traced(spark, a, in, datagenS, gtS) else untraced(spark, a, in)
  }

  private def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private def setup(spark: SparkSession, w: WorkloadSpec, in: Inputs): ElementalGraphs =
    if (w.sparkBuild) DistributedBuilder.build(spark, in.ds.vs, Workloads.M, Workloads.EF)
    else ElementalGraphBuilder.build(in.ds.vs, Workloads.M, Workloads.EF)

  private def sameIds(res: Array[Candidate], ids: Array[Int]): Boolean =
    res != null && ids != null && res.length == ids.length &&
      res.indices.forall(i => res(i).id == ids(i))

  /** First pass over the queries, with `SearchStats`. */
  private def reference(w: WorkloadSpec, in: Inputs, ir: IRangeGraph, tally: Tally): Reference = {
    val nq = in.queries.length
    val stats = new SearchStats
    val ids = new Array[Array[Int]](nq)
    val violated = new Array[Boolean](nq)
    for (q <- in.queries) {
      val res = try Workloads.search(w, in, ir, q, stats) catch { case NonFatal(_) => null }
      violated(q.qid) = Workloads.violatesContract(w, in.ds.attr2Rank, q, res)
      ids(q.qid) = if (res == null) null else res.map(_.id)
      tally.attempted += 1
      if (violated(q.qid)) tally.failed += 1
    }
    Reference(ids, violated, stats)
  }

  /** One untraced closed-loop pass over every query; returns the latencies. */
  def pass(w: WorkloadSpec, in: Inputs, ir: IRangeGraph, ref: Reference,
                   tally: Tally): Array[Long] = {
    val lat = new Array[Long](in.queries.length)
    for (q <- in.queries) {
      val t0 = System.nanoTime()
      val res = try Workloads.search(w, in, ir, q) catch { case NonFatal(_) => null }
      lat(q.qid) = System.nanoTime() - t0
      tally.attempted += 1
      if (ref.violated(q.qid) || !sameIds(res, ref.ids(q.qid))) tally.failed += 1
    }
    lat
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile. */
  private def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(p * s.length).toInt - 1))
  }

  private def recall(in: Inputs, ref: Reference): Double =
    GroundTruth.meanRecall(in.gt, ref.ids.map(ids => if (ids == null) Array.emptyIntArray else ids))

  /** Checksum of every result id in query order, with the exact counters. */
  private def fingerprint(w: WorkloadSpec, seed: Long, ref: Reference): String = {
    val crc = new java.util.zip.CRC32
    for (ids <- ref.ids) {
      val xs = if (ids == null) Array(-1) else ids
      val buf = java.nio.ByteBuffer.allocate(4 * (xs.length + 1))
      buf.putInt(xs.length)
      xs.foreach(buf.putInt)
      crc.update(buf.array)
    }
    f"fingerprint workload=${w.name} seed=$seed ids_crc32=${crc.getValue}%08x " +
      s"dist_computations=${ref.stats.distComputations} nodes_expanded=${ref.stats.nodesExpanded} " +
      s"edges_scanned=${ref.stats.edgesScanned}"
  }

  private def judge(in: Inputs, ref: Reference, tally: Tally): (Double, Boolean) = {
    val r = recall(in, ref)
    println(s"error_rate ${tally.failed.toDouble / tally.attempted} " +
      s"(${tally.failed} of ${tally.attempted} searches threw or broke the result contract)")
    if (r < MinRecall) println(s"recall $r is below the floor $MinRecall")
    (r, tally.failed == 0 && r >= MinRecall)
  }

  def untraced(spark: SparkSession, a: Args, in: Inputs): (Tally, Boolean, Seq[Metric]) = {
    val w = a.workload
    val first = seconds(setup(spark, w, in))
    val graphs = first._1
    val ir = new IRangeGraph(in.ds.vs, graphs)
    val tally = new Tally
    val ref = reference(w, in, ir, tally)
    println(fingerprint(w, a.seed, ref))

    // Queries are timed in fresh JVMs (see QueryFork), one after each
    // repeated build, so the timed passes spread over the whole run. The
    // host's speed drifts over seconds and a slow period only adds time, so
    // every query is scored by its best latency over all passes of all forks.
    val input = java.io.File.createTempFile("perfbench-queries", ".bin")
    QueryFork.writeInput(input, w, in, graphs, ref)
    val setupTimes = mutable.ArrayBuffer(first._2)
    val forks = mutable.ArrayBuffer.empty[QueryFork.Result]
    try {
      for (rep <- 0 until SetupRepeats) {
        if (rep > 0) {
          val (g, s) = seconds(setup(spark, w, in))
          fidelity(BuildTrace.sameGraphs(g, graphs), "repeated builds of the same input differ")
          setupTimes += s
        }
        forks += QueryFork.run(input, a.seconds / SetupRepeats)
      }
    } finally input.delete()
    forks.foreach { f => tally.attempted += f.attempted; tally.failed += f.failed }
    val setupS = median(setupTimes.toSeq)
    println(s"setup: ${if (w.sparkBuild) "DistributedBuilder" else "ElementalGraphBuilder"}.build, " +
      s"median of ${setupTimes.mkString(", ")} s")
    val nq = in.queries.length
    val bestUs = (0 until nq).map(i => forks.map(_.best(i)).min / 1e3)
    val passNs = forks.flatMap(_.passNs)
    println(s"timed: ${forks.length} forks, ${passNs.length} passes of $nq queries, qps per pass " +
      s"${nq / (passNs.max / 1e9)} .. ${nq / (passNs.min / 1e9)} (median ${nq / (median(passNs.map(_.toDouble).toSeq) / 1e9)}); " +
      s"qps from per-query best latencies, per fork: " +
      forks.map(f => nq / (f.best.sum / 1e9)).mkString(", "))

    val (r, correct) = judge(in, ref, tally)
    (tally, correct, Seq(
      Metric("setup_s", setupS, "s"),
      Metric("qps", nq / (bestUs.sum / 1e6), "1/s"),
      Metric("latency_p50_us", percentile(bestUs, 0.50), "us"),
      Metric("latency_p99_us", percentile(bestUs, 0.99), "us"),
      Metric("recall_at_10", r, "ratio"),
      Metric("index_mb", graphs.sizeBytes / 1e6, "MB"),
    ))
  }

  def traced(spark: SparkSession, a: Args, in: Inputs,
             datagenS: Double, gtS: Double): (Tally, Boolean, Seq[Metric]) = {
    val w = a.workload
    val vs = in.ds.vs
    val (local, localS) = seconds(ElementalGraphBuilder.build(vs, Workloads.M, Workloads.EF))
    val (layered, layerS) = BuildTrace.layered(vs, Workloads.M, Workloads.EF)
    fidelity(BuildTrace.sameGraphs(layered, local),
      "layer-by-layer build differs from ElementalGraphBuilder.build")
    val (sparkG, sparkS) = seconds(DistributedBuilder.build(spark, vs, Workloads.M, Workloads.EF))
    fidelity(BuildTrace.sameGraphs(sparkG, layered), "Spark build differs from the local build")
    val driverTopS = layerS.take(BuildTrace.driverLayers(w.n)).sum
    println(s"build: sum of ${layerS.length} layers ${layerS.sum} s; " +
      s"ElementalGraphBuilder.build $localS s; DistributedBuilder.build $sparkS s, " +
      s"of which the ${BuildTrace.driverLayers(w.n)} driver layers take $driverTopS s")

    val ir = new IRangeGraph(vs, if (w.sparkBuild) sparkG else local)
    val tally = new Tally
    val ref = reference(w, in, ir, tally)
    println(fingerprint(w, a.seed, ref))

    def tracedPass(t: QueryTrace): Unit = {
      val before = (t.stats.distComputations, t.stats.nodesExpanded, t.stats.edgesScanned, t.distCalls)
      for (q <- in.queries) {
        val res = t.search(q, in.probSeed)
        tally.attempted += 1
        if (ref.violated(q.qid)) tally.failed += 1
        fidelity(ref.ids(q.qid) == null || sameIds(res, ref.ids(q.qid)),
          s"traced search of query ${q.qid} returned other ids than the untraced search")
      }
      val s = t.stats
      fidelity(s.distComputations - before._1 == ref.stats.distComputations &&
        s.nodesExpanded - before._2 == ref.stats.nodesExpanded &&
        s.edgesScanned - before._3 == ref.stats.edgesScanned &&
        t.distCalls - before._4 == ref.stats.distComputations,
        "traced search counters differ from the untraced SearchStats")
    }

    def newTrace() = new QueryTrace(ir.graphs, vs, in.ds.attr2Rank, w.multiAttr, Workloads.K, Workloads.Beam)
    tracedPass(newTrace()) // warm-up
    pass(w, in, ir, ref, tally)

    val t = newTrace()
    val tracedNs = mutable.ArrayBuffer.empty[Double]
    val untracedNs = mutable.ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + (a.seconds * 1e9).toLong
    while (tracedNs.length < 2 || System.nanoTime() < deadline) {
      untracedNs += pass(w, in, ir, ref, tally).sum.toDouble
      val before = t.totalNs
      tracedPass(t)
      tracedNs += (t.totalNs - before).toDouble
    }

    val q = t.queries.toDouble
    val selfNs = t.totalNs - t.distNs - t.selNs
    val share = (ns: Long) => ns.toDouble / t.totalNs
    println(f"traced query time ${t.totalNs / q / 1e3}%.3f us/query over ${t.queries} queries: " +
      f"distance ${t.distNs / q / 1e3}%.3f us (share ${share(t.distNs)}%.4f), " +
      f"edge selection ${t.selNs / q / 1e3}%.3f us (share ${share(t.selNs)}%.4f), " +
      f"bookkeeping ${selfNs / q / 1e3}%.3f us (share ${share(selfNs)}%.4f)")
    println(f"edge selection fills ${t.selEdges.toDouble / t.selCalls}%.3f of m = ${Workloads.M} slots per call")
    println(s"visit accepted ${t.visitAccepted} of ${t.visitCalls}; admit accepted ${t.admitAccepted} of ${t.admitCalls}")

    val (_, correct) = judge(in, ref, tally)
    val layerMetrics = layerS.indices.map(i => Metric(f"build.layer$i%02d_s", layerS(i), "s"))
    (tally, correct, Seq(
      Metric("dist.calls_per_query", t.distCalls / q, "count"),
      Metric("dist.ns_per_call", t.distNs.toDouble / t.distCalls, "ns"),
      Metric("dist.share", share(t.distNs), "ratio"),
      Metric("edgesel.calls_per_query", t.selCalls / q, "count"),
      Metric("edgesel.ns_per_call", t.selNs.toDouble / t.selCalls, "ns"),
      Metric("edgesel.edges_per_call", t.selEdges.toDouble / t.selCalls, "count"),
      Metric("edgesel.share", share(t.selNs), "ratio"),
      Metric("edgesel.noskip_ns_per_call", t.noSkipNs.toDouble / t.noSkipCalls, "ns"),
      Metric("beam.expansions_per_query", t.stats.nodesExpanded / q, "count"),
      Metric("beam.edges_per_query", t.stats.edgesScanned / q, "count"),
      Metric("beam.self_ns_per_query", selfNs / q, "ns"),
      Metric("beam.self_share", share(selfNs), "ratio"),
      Metric("multiattr.visit_accept_ratio", t.visitAccepted.toDouble / t.visitCalls, "ratio"),
      Metric("multiattr.admit_ratio", t.admitAccepted.toDouble / t.admitCalls, "ratio"),
    ) ++ layerMetrics ++ Seq(
      Metric("build.layers_sum_s", layerS.sum, "s"),
      Metric("build.local_s", localS, "s"),
      Metric("build.edges", local.edgeCount.toDouble, "count"),
      Metric("spark.driver_top_s", driverTopS, "s"),
      Metric("spark.partition_merge_s", sparkS - driverTopS, "s"),
      Metric("harness.datagen_s", datagenS, "s"),
      Metric("harness.groundtruth_s", gtS, "s"),
      Metric("trace.overhead_ratio", tracedNs.min / untracedNs.min, "ratio"),
    ))
  }

  def resultJson(correct: Boolean, tally: Tally, metrics: Seq[Metric]): String = {
    metrics.foreach(m => require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is ${m.value}"))
    val ms = metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": ${tally.attempted}, "failed": ${tally.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }
}
