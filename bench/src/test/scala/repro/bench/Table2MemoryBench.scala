package repro.bench

/** Reproduces Table 2 (memory footprint). Prints exact byte accounting per
  * method per dataset and asserts the paper's qualitative ordering:
  * SuperPostfiltering > iRangeGraph; Pre-filtering == raw vectors;
  * Milvus close to a single whole-set index.
  */
class Table2MemoryBench extends repro.SparkSpec {

  test("Table 2 — memory footprint") {
    val res = Tables.table2()
    println(res.text)
    val raw = res.row("Raw Vectors")
    val irg = res.row("iRangeGraph")
    val superPost = res.row("SuperPostfiltering")
    val pre = res.row("Pre-filtering")
    val milvus = res.row("Milvus")

    // Pre-filtering stores no index: footprint == raw vectors.
    assert(pre == raw)
    // Every graph index adds memory on top of the vectors.
    for (m <- BenchContext.suite(BenchContext.datasets.head).methods if m.name != "Pre-filtering")
      res.datasets.indices.foreach(i => assert(res.row(m.name)(i) > raw(i), s"${m.name} on ${res.datasets(i)}"))
    // SuperPostfiltering's overlapping windows cost more than iRangeGraph's
    // one-appearance-per-layer elemental graphs (paper's Table 2 ordering).
    res.datasets.indices.foreach { i =>
      assert(superPost(i) > irg(i),
        s"SuperPost ${superPost(i)} <= iRangeGraph ${irg(i)} on ${res.datasets(i)}")
    }
    // Milvus (10 disjoint partition HNSWs) is leaner than iRangeGraph's
    // log-n layers.
    res.datasets.indices.foreach(i => assert(milvus(i) < irg(i)))
  }
}
