package repro.bench

import repro.baselines.OracleHnsw
import repro.core.{BasicSearch, MultiAttr}
import repro.data.{GroundTruth, Workload}
import BenchUtil._

/** One harness function per evaluation artifact (Tables 1–3, Figures 2–5 as
  * qps@0.9-recall summary tables). Each returns structured results plus the
  * printable table; bench suites print + assert, jobs just print.
  */
object Tables {

  val methodNames: Seq[String] = Seq(
    "iRangeGraph", "2DSegmentGraph", "FilteredVamana", "StitchedVamana",
    "Milvus", "SuperPostfiltering", "Pre-filtering")

  // ---------------------------------------------------------------- Table 1

  def table1(): String = {
    val rows = BenchContext.datasets.map { ds =>
      Seq(ds.name, ds.n.toString, ds.dim.toString, "2",
          ds.queries.length.toString, fmtMB(ds.rawVectorBytes) + " MB")
    }
    formatTable("Table 1 — Datasets (synthetic analogs)",
      Seq("dataset", "n", "dim", "#attrs", "#queries", "raw vectors"), rows)
  }

  // ---------------------------------------------------------------- Table 2

  final case class Table2Row(method: String, bytesPerDataset: Seq[Long])
  final case class Table2Result(datasets: Seq[String], rows: Seq[Table2Row], text: String)

  /** Memory footprint: raw vectors + index bytes per method (the paper
    * reports overall footprint; raw vectors listed for reference).
    */
  def table2(): Table2Result = {
    val dss = BenchContext.datasets
    val suites = dss.map(BenchContext.suite)
    val raw = Table2Row("Raw Vectors", dss.map(_.rawVectorBytes))
    val rows = raw +: methodNames.map { mn =>
      Table2Row(mn, suites.map(s => s.ds.rawVectorBytes + s.method(mn).indexBytes))
    }
    val text = formatTable("Table 2 — Memory footprint (MB)",
      "method" +: dss.map(_.name),
      rows.map(r => r.method +: r.bytesPerDataset.map(fmtMB)))
    Table2Result(dss.map(_.name), rows, text)
  }

  // ---------------------------------------------------------------- Table 3

  final case class Table3Row(method: String, secondsPerDataset: Seq[Double])
  final case class Table3Result(datasets: Seq[String], rows: Seq[Table3Row], text: String)

  def table3(): Table3Result = {
    val dss = BenchContext.datasets
    val suites = dss.map(BenchContext.suite)
    val rows =
      methodNames.map { mn =>
        Table3Row(mn, suites.map(s => s.method(mn).buildSeconds))
      } ++ Seq(
        Table3Row("HNSW-on-all (reference)", suites.map(_.hnswAllBuildSeconds)),
        Table3Row("iRangeGraph (Spark 16-way)", suites.map(_.sparkIrgBuildSeconds)),
      )
    val text = formatTable("Table 3 — Indexing time (s)",
      "method" +: dss.map(_.name),
      rows.map(r => r.method +: r.secondsPerDataset.map(s => f"$s%.1f")))
    Table3Result(dss.map(_.name), rows, text)
  }

  // ---------------------------------------------------------------- Fig 2

  final case class Fig2Cell(dataset: String, workload: String, method: String,
                            qpsAt09: Option[Double], maxRecall: Double)
  final case class Fig2Result(cells: Seq[Fig2Cell], text: String)

  def fig2(datasetNames: Seq[String]): Fig2Result = {
    val cells = for {
      ds <- BenchContext.datasets if datasetNames.contains(ds.name)
      suite = BenchContext.suite(ds)
      (wname, _) <- BenchContext.workloadSpecs
      w = BenchContext.workload(ds, wname)
      mn <- methodNames
    } yield {
      val curve = BenchContext.sweep(ds, suite.method(mn), w)
      Fig2Cell(ds.name, wname, mn, qpsAtRecall(curve, 0.9), maxRecall(curve))
    }
    val text = formatTable(
      "Figure 2 (as table) — single-attribute RFANN: qps @ 0.9 recall ('fail' = never reaches 0.9) and max recall",
      Seq("dataset", "workload", "method", "qps@0.9", "maxRecall"),
      cells.map(c => Seq(c.dataset, c.workload, c.method,
        fmtQps(c.qpsAt09), f"${c.maxRecall}%.3f")))
    Fig2Result(cells, text)
  }

  // ---------------------------------------------------------------- Fig 3

  final case class Fig3Cell(dataset: String, variant: String,
                            qpsAt09: Option[Double], maxRecall: Double)
  final case class Fig3Result(cells: Seq[Fig3Cell], text: String)

  /** Ablation on the mixed workload: full iRangeGraph vs no-layer-skip
    * edge selection (iRangeGraph⁻) vs the classical per-canonical-segment
    * search (BasicSearch).
    */
  def fig3(datasetNames: Seq[String]): Fig3Result = {
    val k = BenchContext.k
    val cells = for {
      ds <- BenchContext.datasets if datasetNames.contains(ds.name)
      suite = BenchContext.suite(ds)
      w = BenchContext.workload(ds, "mixed")
      (vname, fn) <- Seq[(String, (Int, Int) => Array[Int])](
        ("iRangeGraph", (qid, beam) => {
          val (l, r) = w.ranges(qid)
          suite.irg.search(ds.queries(qid), l, r, k, beam).map(_.id)
        }),
        ("iRangeGraph-", (qid, beam) => {
          val (l, r) = w.ranges(qid)
          suite.irg.search(ds.queries(qid), l, r, k, beam, skipLayers = false).map(_.id)
        }),
        ("BasicSearch", (qid, beam) => {
          val (l, r) = w.ranges(qid)
          BasicSearch.search(ds.vs, suite.irg.graphs, ds.queries(qid), l, r, k, beam).map(_.id)
        }),
      )
    } yield {
      val curve = BenchUtil.sweep(fn, BenchContext.nQueries, w.gt)
      Fig3Cell(ds.name, vname, qpsAtRecall(curve, 0.9), maxRecall(curve))
    }
    val text = formatTable(
      "Figure 3 (as table) — ablation on mixed workload: qps @ 0.9 recall",
      Seq("dataset", "variant", "qps@0.9", "maxRecall"),
      cells.map(c => Seq(c.dataset, c.variant, fmtQps(c.qpsAt09), f"${c.maxRecall}%.3f")))
    Fig3Result(cells, text)
  }

  // ---------------------------------------------------------------- Fig 4

  final case class Fig4Cell(dataset: String, method: String,
                            qpsAt09: Option[Double], maxRecall: Double,
                            buildSeconds: Double)
  final case class Fig4Result(cells: Seq[Fig4Cell], text: String)

  /** Oracle gap (Section 5.2.4): shared-range mixed workload (10 distinct
    * ranges) so only 10 oracle HNSWs are materialized.
    */
  def fig4(datasetNames: Seq[String]): Fig4Result = {
    val k = BenchContext.k
    val cells = (for {
      ds <- BenchContext.datasets if datasetNames.contains(ds.name)
    } yield {
      val suite = BenchContext.suite(ds)
      val (distinct, rqs) = Workload.sharedMixed(ds.n, BenchContext.nQueries)
      val ranges = rqs.map(rq => (rq.L, rq.R))
      val gt = GroundTruth.computeSpark(BenchContext.spark, ds.vs, ds.queries, ranges, k)
      val (oracle, tOracle) = cpuSeconds(
        OracleHnsw.build(ds.vs, distinct, MethodSuite.M, MethodSuite.EF))
      val irgCurve = BenchUtil.sweep((qid, beam) => {
        val (l, r) = ranges(qid)
        suite.irg.search(ds.queries(qid), l, r, k, beam).map(_.id)
      }, BenchContext.nQueries, gt)
      val oraCurve = BenchUtil.sweep((qid, beam) => {
        val (l, r) = ranges(qid)
        oracle.search(ds.queries(qid), l, r, k, beam).map(_.id)
      }, BenchContext.nQueries, gt)
      Seq(
        Fig4Cell(ds.name, "iRangeGraph", qpsAtRecall(irgCurve, 0.9), maxRecall(irgCurve), 0.0),
        Fig4Cell(ds.name, "Oracle-HNSW", qpsAtRecall(oraCurve, 0.9), maxRecall(oraCurve), tOracle),
      )
    }).flatten
    val text = formatTable(
      "Figure 4 (as table) — iRangeGraph vs Oracle-HNSW, shared mixed ranges: qps @ 0.9 recall",
      Seq("dataset", "method", "qps@0.9", "maxRecall", "build(s)"),
      cells.map(c => Seq(c.dataset, c.method, fmtQps(c.qpsAt09),
        f"${c.maxRecall}%.3f", f"${c.buildSeconds}%.1f")))
    Fig4Result(cells, text)
  }

  // ---------------------------------------------------------------- Fig 5

  final case class Fig5Cell(dataset: String, method: String,
                            qpsAt09: Option[Double], maxRecall: Double)
  final case class Fig5Result(cells: Seq[Fig5Cell], text: String)

  /** Multi-attribute RFANN (Section 5.2.5) on the two 2-attribute analogs:
    * both attribute ranges with expected fraction 2⁻².
    */
  def fig5(datasetNames: Seq[String] = Seq("ytrgb-lite", "ytaudio-lite")): Fig5Result = {
    val k = BenchContext.k
    val cells = (for {
      ds <- BenchContext.datasets if datasetNames.contains(ds.name)
    } yield {
      val suite = BenchContext.suite(ds)
      val qs = Workload.multiAttr(ds.n, BenchContext.nQueries)
      val r1 = qs.map(q => (q.L1, q.R1))
      val r2 = qs.map(q => (q.L2, q.R2))
      val gt = GroundTruth.computeSpark(BenchContext.spark, ds.vs, ds.queries, r1, k,
        attr2Rank = ds.attr2Rank, ranges2 = r2)
      def in2(qid: Int)(i: Int): Boolean = {
        val a = ds.attr2Rank(i); a >= r2(qid)._1 && a <= r2(qid)._2
      }
      val variants: Seq[(String, (Int, Int) => Array[Int])] = Seq(
        ("iRangeGraph", (qid, beam) => MultiAttr.search(suite.irg, ds.attr2Rank,
          ds.queries(qid), r1(qid)._1, r1(qid)._2, r2(qid)._1, r2(qid)._2,
          k, beam, MultiAttr.PostFilter).map(_.id)),
        ("iRangeGraph+", (qid, beam) => MultiAttr.search(suite.irg, ds.attr2Rank,
          ds.queries(qid), r1(qid)._1, r1(qid)._2, r2(qid)._1, r2(qid)._2,
          k, beam, MultiAttr.Probabilistic(qid.toLong * 31 + beam)).map(_.id)),
        ("2DSegmentGraph", (qid, beam) => suite.serf.search(ds.queries(qid),
          r1(qid)._1, r1(qid)._2, k, beam, extraAdmit = in2(qid)).map(_.id)),
        ("Milvus", (qid, beam) => suite.milvus.search(ds.queries(qid),
          r1(qid)._1, r1(qid)._2, k, beam, extraAdmit = in2(qid)).map(_.id)),
        ("Pre-filtering", (qid, _) => repro.baselines.PreFiltering.search(ds.vs,
          ds.queries(qid), r1(qid)._1, r1(qid)._2, k, in2(qid)).map(_.id)),
      )
      variants.map { case (vname, fn) =>
        val curve = BenchUtil.sweep(fn, BenchContext.nQueries, gt)
        Fig5Cell(ds.name, vname, qpsAtRecall(curve, 0.9), maxRecall(curve))
      }
    }).flatten
    val text = formatTable(
      "Figure 5 (as table) — multi-attribute RFANN: qps @ 0.9 recall",
      Seq("dataset", "method", "qps@0.9", "maxRecall"),
      cells.map(c => Seq(c.dataset, c.method, fmtQps(c.qpsAt09), f"${c.maxRecall}%.3f")))
    Fig5Result(cells, text)
  }
}
