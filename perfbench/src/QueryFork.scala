package perfbench

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File,
  FileInputStream, FileOutputStream}
import java.util.concurrent.TimeUnit
import repro.core.{ElementalGraphs, IRangeGraph}
import repro.data.RfDataset
import repro.graph.VecStore

/** Timed query passes in a fresh JVM.
  *
  * In the JVM that builds the index, the builders' own calls into
  * `BeamSearch.search` shape how the JIT compiles it for queries, and query
  * speed there differs between runs of the same input by up to a sixth. So
  * the untraced run times its queries in short-lived JVMs, one after each
  * build, each loading the built index from a file. A fork only runs the
  * public search call over the queries and checks every result against the
  * parent's reference ids.
  */
object QueryFork {

  /** What a fork reports back. `best(i)` is query i's lowest latency in ns. */
  final case class Result(best: Array[Long], passNs: Array[Long], attempted: Long, failed: Long)

  def writeInput(file: File, w: WorkloadSpec, in: Inputs, g: ElementalGraphs,
                 ref: Main.Reference): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(file)))
    try {
      val vs = in.ds.vs
      out.writeUTF(w.name)
      out.writeLong(in.probSeed)
      out.writeInt(vs.dim); out.writeInt(vs.n); vs.data.foreach(out.writeFloat)
      out.writeInt(g.m); out.writeInt(g.numLayers); g.layers.foreach(_.foreach(out.writeInt))
      in.ds.attr2Rank.foreach(out.writeInt)
      out.writeInt(in.queries.length)
      for (q <- in.queries) {
        Seq(q.l1, q.r1, q.l2, q.r2).foreach(out.writeInt)
        q.vec.foreach(out.writeFloat)
        out.writeBoolean(ref.violated(q.qid))
        val ids = Option(ref.ids(q.qid)).getOrElse(Array.emptyIntArray)
        out.writeInt(ids.length); ids.foreach(out.writeInt)
      }
    } finally out.close()
  }

  /** Runs one fork for `seconds` of timed passes and waits for it. */
  def run(input: File, seconds: Double): Result = {
    val output = new File(input.getPath + ".out")
    val java = new File(new File(System.getProperty("java.home"), "bin"), "java").getPath
    val proc = new ProcessBuilder(java, "-XX:-UsePerfData", "-Xmx1g",
        "-cp", System.getProperty("java.class.path"), "perfbench.QueryFork",
        input.getPath, seconds.toString, output.getPath)
      .redirectOutput(ProcessBuilder.Redirect.DISCARD)
      .redirectError(ProcessBuilder.Redirect.INHERIT)
      .start()
    if (!proc.waitFor((seconds + 60).toLong, TimeUnit.SECONDS)) {
      proc.destroyForcibly().waitFor()
      throw new RuntimeException("query fork timed out")
    }
    if (proc.exitValue != 0) throw new RuntimeException(s"query fork exited with ${proc.exitValue}")
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(output)))
    try {
      val attempted = in.readLong()
      val failed = in.readLong()
      val best = Array.fill(in.readInt())(in.readLong())
      val passNs = Array.fill(in.readInt())(in.readLong())
      Result(best, passNs, attempted, failed)
    } finally { in.close(); output.delete() }
  }

  /** Fork entrypoint: `<input file> <seconds> <output file>`. */
  def main(args: Array[String]): Unit = {
    val Array(inputPath, secondsArg, outputPath) = args
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(inputPath)))
    val w = Workloads.byName(in.readUTF()).get
    val probSeed = in.readLong()
    val dim = in.readInt()
    val n = in.readInt()
    val vs = new VecStore(dim, n, Array.fill(dim * n)(in.readFloat()))
    val m = in.readInt()
    val layers = Array.fill(in.readInt())(Array.fill(n * m)(in.readInt()))
    val attr2Rank = Array.fill(n)(in.readInt())
    val nq = in.readInt()
    val violated = new Array[Boolean](nq)
    val ids = new Array[Array[Int]](nq)
    val queries = Array.tabulate(nq) { qid =>
      val Seq(l1, r1, l2, r2) = Seq.fill(4)(in.readInt())
      val vec = Array.fill(dim)(in.readFloat())
      violated(qid) = in.readBoolean()
      ids(qid) = Array.fill(in.readInt())(in.readInt())
      Query(qid, vec, l1, r1, l2, r2)
    }
    in.close()

    val ds = RfDataset(w.dataset, dim, vs, Array.emptyDoubleArray, attr2Rank, queries.map(_.vec))
    val inputs = Inputs(ds, queries, Array.empty, probSeed)
    val ir = new IRangeGraph(vs, new ElementalGraphs(n, m, layers))
    val ref = Main.Reference(ids, violated, null)
    val tally = new Main.Tally
    Main.pass(w, inputs, ir, ref, tally) // warm-up
    Main.pass(w, inputs, ir, ref, tally)

    val best = Array.fill(nq)(Long.MaxValue)
    val passNs = Array.newBuilder[Long]
    val deadline = System.nanoTime() + (secondsArg.toDouble * 1e9).toLong
    do {
      val lat = Main.pass(w, inputs, ir, ref, tally)
      var i = 0
      while (i < nq) { best(i) = math.min(best(i), lat(i)); i += 1 }
      passNs += lat.sum
    } while (System.nanoTime() < deadline)

    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(outputPath)))
    try {
      out.writeLong(tally.attempted)
      out.writeLong(tally.failed)
      out.writeInt(nq); best.foreach(out.writeLong)
      val ps = passNs.result()
      out.writeInt(ps.length); ps.foreach(out.writeLong)
    } finally out.close()
  }
}
