package repro.core

import repro.{SparkSpec, TestData}

class DistributedBuilderSpec extends SparkSpec {

  private val vs = TestData.clusteredVs(600, 8, clusters = 6, seed = 131)

  /** Decodes each index once, then compares them layer by layer. */
  private def assertSameLayers(dist: ElementalGraphs, local: ElementalGraphs): Unit = {
    val (d, l) = (dist.layers, local.layers)
    for (lay <- 0 until local.numLayers)
      assert(d(lay).toSeq == l(lay).toSeq, s"layer $lay differs")
  }

  test("distributed build is identical to the local build") {
    val local = ElementalGraphBuilder.build(vs, m = 8, ef = 40)
    val dist = DistributedBuilder.build(spark, vs, m = 8, ef = 40, cutLay = 3)
    assert(dist.numLayers == local.numLayers)
    assertSameLayers(dist, local)
    dist.validate(vs)
  }

  test("distributed build with deeper cut is also identical") {
    val small = TestData.clusteredVs(200, 6, clusters = 4, seed = 132)
    val local = ElementalGraphBuilder.build(small, m = 6, ef = 30)
    val dist = DistributedBuilder.build(spark, small, m = 6, ef = 30, cutLay = 5)
    assertSameLayers(dist, local)
    dist.validate(small)
  }

  test("cut larger than the tree depth falls back gracefully") {
    val tiny = TestData.randomVs(10, 4, seed = 133)
    val local = ElementalGraphBuilder.build(tiny, m = 4, ef = 10)
    val dist = DistributedBuilder.build(spark, tiny, m = 4, ef = 10, cutLay = 30)
    assertSameLayers(dist, local)
  }

  test("cut = 0 equals the local build by construction") {
    val small = TestData.randomVs(50, 4, seed = 134)
    val local = ElementalGraphBuilder.build(small, m = 4, ef = 20)
    val dist = DistributedBuilder.build(spark, small, m = 4, ef = 20, cutLay = 0)
    assertSameLayers(dist, local)
  }

  test("search quality on the distributed-built index matches the local one") {
    val g = DistributedBuilder.build(spark, vs, m = 8, ef = 40, cutLay = 3)
    val ir = new IRangeGraph(vs, g)
    val q = TestData.nearQueries(vs, 1, seed = 135)(0)
    val got = ir.search(q, 50, 550, 10, 100).map(_.id)
    val exact = repro.graph.BruteForce.topKIds(vs, q, 50, 550, 10)
    assert(got.intersect(exact).length >= 8)
  }
}
