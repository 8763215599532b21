package repro.bench

import repro.baselines.{OracleHnsw, PreFiltering}
import repro.core.{BasicSearch, MultiAttr}
import repro.data.{GroundTruth, RfDataset, Workload}
import BenchUtil._

/** One harness function per evaluation artifact (Tables 1–3, Figures 2–5 as
  * qps@0.9-recall summary tables). Each returns structured results plus the
  * printable table; bench suites print + assert, jobs just print.
  */
object Tables {

  /** A search over a workload: (qid, beam) => result ids. */
  type Search = (Int, Int) => Array[Int]

  /** One cell of Figures 2–5: qps at 0.9 recall (None = never reached) and
    * the highest recall of the method's sweep.
    */
  final case class Cell(dataset: String, workload: String, method: String,
                        qpsAt09: Option[Double], maxRecall: Double)

  final case class Figure(cells: Seq[Cell], text: String) {
    def cell(d: String, w: String, m: String): Cell =
      cells.find(c => c.dataset == d && c.workload == w && c.method == m).get
  }

  /** Tables 2–3: one value per dataset for each named row. */
  final case class PerDataset[A](datasets: Seq[String], rows: Seq[(String, Seq[A])], text: String) {
    def row(name: String): Seq[A] = rows.find(_._1 == name).get._2
  }

  // ---------------------------------------------------------------- Table 1

  def table1(): String = {
    val rows = BenchContext.datasets.map { ds =>
      Seq(ds.name, ds.n.toString, ds.dim.toString, "2",
          ds.queries.length.toString, fmtMB(ds.rawVectorBytes) + " MB")
    }
    formatTable("Table 1 - Datasets (synthetic analogs)",
      Seq("dataset", "n", "dim", "#attrs", "#queries", "raw vectors"), rows)
  }

  // ------------------------------------------------------------ Tables 2–3

  private def perDataset[A](title: String, fmt: A => String,
                            rows: Seq[MethodSuite] => Seq[(String, Seq[A])]): PerDataset[A] = {
    val suites = BenchContext.datasets.map(BenchContext.suite)
    val names = suites.map(_.ds.name)
    val rs = rows(suites)
    PerDataset(names, rs,
      formatTable(title, "method" +: names, rs.map { case (name, vs) => name +: vs.map(fmt) }))
  }

  /** One row per method of [[MethodSuite]], in its order. */
  private def methodRows[A](suites: Seq[MethodSuite])(
      value: (MethodSuite, BuiltMethod) => A): Seq[(String, Seq[A])] =
    suites.head.methods.map(_.name).map(mn => mn -> suites.map(s => value(s, s.method(mn))))

  /** Memory footprint: raw vectors + index bytes per method (the paper
    * reports overall footprint; raw vectors listed for reference).
    */
  def table2(): PerDataset[Long] =
    perDataset[Long]("Table 2 - Memory footprint (MB)", fmtMB, suites =>
      ("Raw Vectors" -> suites.map(_.ds.rawVectorBytes)) +:
        methodRows(suites)((s, m) => s.ds.rawVectorBytes + m.indexBytes))

  def table3(): PerDataset[Double] =
    perDataset[Double]("Table 3 - Indexing time (s)", s => f"$s%.1f", suites =>
      methodRows(suites)((_, m) => m.buildSeconds) ++ Seq(
        "HNSW-on-all (reference)" -> suites.map(_.hnswAllBuildSeconds),
        "iRangeGraph (Spark 16-way)" -> suites.map(_.sparkIrgBuildSeconds)))

  // ----------------------------------------------------------- Figures 2–5

  /** Sweeps every variant's beam over the workload's queries and reads off
    * qps at 0.9 recall and the max recall: the one computation behind
    * every Figure 2–5 cell.
    */
  private[bench] def cells(dataset: String, workload: String, gt: Array[Array[Int]],
                           variants: Seq[(String, Search)]): Seq[Cell] =
    variants.map { case (method, search) =>
      val curve = BenchUtil.sweep(search, gt.length, gt)
      Cell(dataset, workload, method, qpsAtRecall(curve, 0.9), maxRecall(curve))
    }

  private[bench] def figure(title: String, cells: Seq[Cell]): Figure =
    Figure(cells, formatTable(title, Seq("dataset", "workload", "method", "qps@0.9", "maxRecall"),
      cells.map(c => Seq(c.dataset, c.workload, c.method, fmtQps(c.qpsAt09), f"${c.maxRecall}%.3f"))))

  private def selected(datasetNames: Seq[String]): Seq[RfDataset] =
    BenchContext.datasets.filter(ds => datasetNames.contains(ds.name))

  def fig2(datasetNames: Seq[String]): Figure = {
    val k = BenchContext.k
    figure(
      "Figure 2 (as table) - single-attribute RFANN: qps @ 0.9 recall ('fail' = never reaches 0.9) and max recall",
      for {
        ds <- selected(datasetNames)
        suite = BenchContext.suite(ds)
        (wname, _) <- BenchContext.workloadSpecs
        w = BenchContext.workload(ds, wname)
        cell <- cells(ds.name, wname, w.gt, suite.methods.map(m => m.name -> ((qid: Int, beam: Int) => {
          val (l, r) = w.ranges(qid)
          m.searchFn(ds.queries(qid), l, r, k, beam)
        })))
      } yield cell)
  }

  /** Ablation on the mixed workload: full iRangeGraph vs no-layer-skip
    * edge selection (iRangeGraph⁻) vs the classical per-canonical-segment
    * search (BasicSearch).
    */
  def fig3(datasetNames: Seq[String]): Figure = {
    val k = BenchContext.k
    figure("Figure 3 (as table) - ablation on mixed workload: qps @ 0.9 recall",
      selected(datasetNames).flatMap { ds =>
        val irg = BenchContext.suite(ds).irg
        val w = BenchContext.workload(ds, "mixed")
        cells(ds.name, "mixed", w.gt, Seq(
          "iRangeGraph" -> ((qid, beam) => {
            val (l, r) = w.ranges(qid)
            irg.search(ds.queries(qid), l, r, k, beam).map(_.id)
          }),
          "iRangeGraph-" -> ((qid, beam) => {
            val (l, r) = w.ranges(qid)
            irg.search(ds.queries(qid), l, r, k, beam, skipLayers = false).map(_.id)
          }),
          "BasicSearch" -> ((qid, beam) => {
            val (l, r) = w.ranges(qid)
            BasicSearch.search(ds.vs, irg.graphs, ds.queries(qid), l, r, k, beam).map(_.id)
          }),
        ))
      })
  }

  /** Oracle gap (Section 5.2.4): shared-range mixed workload (10 distinct
    * ranges) so only 10 oracle HNSWs are materialized. Their build seconds
    * are printed under the table, one line per dataset.
    */
  def fig4(datasetNames: Seq[String]): Figure = {
    val k = BenchContext.k
    val runs = selected(datasetNames).map { ds =>
      val irg = BenchContext.suite(ds).irg
      val (distinct, rqs) = Workload.sharedMixed(ds.n, BenchContext.nQueries)
      val ranges = rqs.map(rq => (rq.L, rq.R))
      val gt = GroundTruth.computeSpark(BenchContext.spark, ds.vs, ds.queries, ranges, k)
      val (oracle, tOracle) = cpuSeconds(
        new OracleHnsw(ds.vs, distinct, MethodSuite.M, MethodSuite.EF))
      (cells(ds.name, "shared-mixed", gt, Seq(
         "iRangeGraph" -> ((qid, beam) => {
           val (l, r) = ranges(qid)
           irg.search(ds.queries(qid), l, r, k, beam).map(_.id)
         }),
         "Oracle-HNSW" -> ((qid, beam) => {
           val (l, r) = ranges(qid)
           oracle.search(ds.queries(qid), l, r, k, beam).map(_.id)
         }),
       )),
       f"Oracle-HNSW build on ${ds.name}: $tOracle%.1f s")
    }
    val fig = figure(
      "Figure 4 (as table) - iRangeGraph vs Oracle-HNSW, shared mixed ranges: qps @ 0.9 recall",
      runs.flatMap(_._1))
    fig.copy(text = (fig.text +: runs.map(_._2)).mkString("\n"))
  }

  /** Multi-attribute RFANN (Section 5.2.5) on the two 2-attribute analogs:
    * both attribute ranges with expected fraction 2⁻².
    */
  def fig5(datasetNames: Seq[String] = Seq("ytrgb-lite", "ytaudio-lite")): Figure = {
    val k = BenchContext.k
    figure("Figure 5 (as table) - multi-attribute RFANN: qps @ 0.9 recall",
      selected(datasetNames).flatMap { ds =>
        val suite = BenchContext.suite(ds)
        val qs = Workload.multiAttr(ds.n, BenchContext.nQueries)
        val r1 = qs.map(q => (q.L1, q.R1))
        val r2 = qs.map(q => (q.L2, q.R2))
        val gt = GroundTruth.computeSpark(BenchContext.spark, ds.vs, ds.queries, r1, k,
          attr2Rank = ds.attr2Rank, ranges2 = r2)
        def in2(qid: Int)(i: Int): Boolean = {
          val a = ds.attr2Rank(i); a >= r2(qid)._1 && a <= r2(qid)._2
        }
        def multiAttr(strategy: Long => MultiAttr.Strategy): Search = (qid, beam) =>
          MultiAttr.search(suite.irg, ds.attr2Rank, ds.queries(qid), r1(qid)._1, r1(qid)._2,
            r2(qid)._1, r2(qid)._2, k, beam, strategy(qid.toLong * 31 + beam)).map(_.id)
        cells(ds.name, "both-2^-2", gt, Seq(
          "iRangeGraph" -> multiAttr(_ => MultiAttr.PostFilter),
          "iRangeGraph+" -> multiAttr(MultiAttr.Probabilistic(_)),
          "2DSegmentGraph" -> ((qid, beam) => suite.serf.search(ds.queries(qid),
            r1(qid)._1, r1(qid)._2, k, beam, extraAdmit = in2(qid)).map(_.id)),
          "Milvus" -> ((qid, beam) => suite.milvus.search(ds.queries(qid),
            r1(qid)._1, r1(qid)._2, k, beam, extraAdmit = in2(qid)).map(_.id)),
          "Pre-filtering" -> ((qid, _) => PreFiltering.search(ds.vs,
            ds.queries(qid), r1(qid)._1, r1(qid)._2, k, in2(qid)).map(_.id)),
        ))
      })
  }
}
