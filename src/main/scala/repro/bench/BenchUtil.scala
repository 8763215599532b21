package repro.bench

import java.util.concurrent.{CompletableFuture, CompletionException, ForkJoinPool}
import repro.data.GroundTruth
import repro.graph.Candidate

/** Timing, qps-recall sweeps and table formatting shared by every bench. */
object BenchUtil {

  /** One point of a qps-recall curve (Figure 2's axes). */
  final case class CurvePoint(beam: Int, recall: Double, qps: Double)

  /** Measure wall-clock of `body` in seconds. */
  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  private val threadMx = java.lang.management.ManagementFactory.getThreadMXBean

  /** Measure the CPU seconds of `body` on one thread. The bench host is
    * a microVM with visible CPU steal (multi-second random stalls), so
    * wall-clock distorts single-threaded measurements by up to 40x between
    * runs; thread CPU time is immune. Use for all single-threaded builds
    * and query loops (the paper measures single-threaded too); wall-clock
    * remains for the multi-threaded Spark build. `body` runs via
    * [[onOneThread]], so a parallel stream inside it (the elemental-graph
    * builder's) stays on the measured thread instead of spreading its CPU
    * time over the common pool.
    */
  def cpuSeconds[A](body: => A): (A, Double) = onOneThread {
    val t0 = threadMx.getCurrentThreadCpuTime
    val a = body
    (a, (threadMx.getCurrentThreadCpuTime - t0) / 1e9)
  }

  /** Run `body` on the single worker of a fresh `ForkJoinPool`: parallel
    * streams inside it fork onto that pool, so their elements run one at a
    * time on that one thread.
    */
  def onOneThread[A](body: => A): A = {
    val pool = new ForkJoinPool(1)
    try CompletableFuture.supplyAsync[A](() => body, pool).join()
    catch { case e: CompletionException => throw e.getCause }
    finally pool.shutdown()
  }

  /** Thread CPU seconds a timed pass runs at least: it repeats the query
    * loop until it has used this much. A pass of one loop can be a
    * millisecond, shorter than the JIT takes to recompile the search after a
    * suite build, so its qps read the code mid-compilation.
    */
  private val MinPassCpuSeconds = 0.05

  /** Run one method over a workload at one beam size; returns the curve
    * point (single-threaded query loop, matching the paper's measurement).
    * Two timed passes of at least [[MinPassCpuSeconds]] each, the faster
    * taken — a single GC pause otherwise distorts the qps of a short loop.
    * qps is queries run / CPU seconds. The candidates' ids are read only
    * after the timed passes, to score recall against `gt`.
    */
  def measure(search: Tables.Search, beam: Int, gt: Array[Array[Int]]): CurvePoint = {
    val results = new Array[Array[Candidate]](gt.length)
    var bestQps = 0.0
    var pass = 0
    while (pass < 2) {
      val t0 = threadMx.getCurrentThreadCpuTime
      var run = 0L
      var cpu = 0.0
      while (cpu < MinPassCpuSeconds) {
        var qid = 0
        while (qid < results.length) {
          results(qid) = search(qid, beam)
          qid += 1
        }
        run += results.length
        cpu = (threadMx.getCurrentThreadCpuTime - t0) / 1e9
      }
      bestQps = math.max(bestQps, run / cpu)
      pass += 1
    }
    CurvePoint(beam, GroundTruth.meanRecall(gt, results.map(_.map(_.id))), bestQps)
  }

  /** The beams of every sweep, ascending. */
  val defaultBeams: Seq[Int] = Seq(10, 20, 40, 80, 160, 320, 640)

  /** Full sweep over [[defaultBeams]]. Stops early once recall reaches
    * 0.995 (the curve is flat after that).
    */
  def sweep(search: Tables.Search, gt: Array[Array[Int]]): Seq[CurvePoint] = {
    val out = Seq.newBuilder[CurvePoint]
    var done = false
    for (b <- defaultBeams if !done) {
      val p = measure(search, b, gt)
      out += p
      if (p.recall >= 0.995) done = true
    }
    out.result()
  }

  /** qps at the target recall, log-interpolated between the two bracketing
    * curve points; None when the method never reaches the target (the
    * paper's "curve missing / fails to achieve 0.8 recall" case).
    */
  def qpsAtRecall(curve: Seq[CurvePoint], target: Double): Option[Double] = {
    val sorted = curve.sortBy(_.beam)
    sorted.find(_.recall >= target) match {
      case None => None
      case Some(hit) =>
        val idx = sorted.indexOf(hit)
        if (idx == 0 || sorted(idx - 1).recall >= target) Some(hit.qps)
        else {
          val lo = sorted(idx - 1)
          val w = (target - lo.recall) / (hit.recall - lo.recall)
          Some(math.exp(math.log(lo.qps) * (1 - w) + math.log(hit.qps) * w))
        }
    }
  }

  def maxRecall(curve: Seq[CurvePoint]): Double =
    if (curve.isEmpty) 0.0 else curve.map(_.recall).max

  /** Fixed-width table printer. */
  def formatTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmtQps(v: Option[Double]): String = v.map(q => f"$q%.0f").getOrElse("fail")
  def fmtMB(bytes: Long): String = f"${bytes / 1e6}%.2f"
}
