package repro.bench

/** Reproduces Figure 4 (gap to Oracle-HNSW, Section 5.2.4). Asserts the
  * paper's claim that the impractical oracle is at most ~2x faster at 0.9
  * recall (we allow 3x for JVM noise), and that both reach 0.9 recall.
  */
class Fig4OracleGapBench extends repro.SparkSpec {

  test("Figure 4 — iRangeGraph vs Oracle-HNSW") {
    val res = Tables.fig4(BenchContext.datasets.map(_.name))
    println(res.text)

    for (d <- BenchContext.datasets.map(_.name)) {
      val ir = res.cell(d, "shared-mixed", "iRangeGraph")
      val or = res.cell(d, "shared-mixed", "Oracle-HNSW")
      assert(ir.qpsAt09.isDefined, s"iRangeGraph failed 0.9 recall on $d")
      assert(or.qpsAt09.isDefined, s"Oracle-HNSW failed 0.9 recall on $d")
      assert(or.qpsAt09.get <= ir.qpsAt09.get * 3.0,
        s"$d: oracle gap ${or.qpsAt09.get / ir.qpsAt09.get}x exceeds 3x")
    }
  }
}
