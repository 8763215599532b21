package repro.data

import repro.SparkSpec

class VectorDataSpec extends SparkSpec {

  private lazy val ds = VectorData.generate(spark, "t", n = 400, dim = 8,
    clusters = 4, nQueries = 20, seed = 900L)

  test("generated sizes match the request") {
    assert(ds.n == 400)
    assert(ds.dim == 8)
    assert(ds.queries.length == 20)
    assert(ds.attr1Values.length == 400)
    assert(ds.attr2Rank.length == 400)
  }

  test("objects are sorted by attribute A1 (rank mapping of Section 2.2)") {
    assert(ds.attr1Values.sliding(2).forall { case Array(a, b) => a <= b; case _ => true })
  }

  test("attr2Rank is a permutation of [0, n)") {
    assert(ds.attr2Rank.sorted.toSeq == (0 until 400).toSeq)
  }

  test("generation is deterministic") {
    val ds2 = VectorData.generate(spark, "t", n = 400, dim = 8,
      clusters = 4, nQueries = 20, seed = 900L)
    assert(ds2.vs.data.toSeq == ds.vs.data.toSeq)
    assert(ds2.attr1Values.toSeq == ds.attr1Values.toSeq)
    assert(ds2.attr2Rank.toSeq == ds.attr2Rank.toSeq)
    assert(ds2.queries.map(_.toSeq).toSeq == ds.queries.map(_.toSeq).toSeq)
  }

  test("different seeds give different data") {
    val other = VectorData.generate(spark, "t", n = 400, dim = 8,
      clusters = 4, nQueries = 20, seed = 901L)
    assert(other.vs.data.toSeq != ds.vs.data.toSeq)
  }

  test("vectors are clustered: mean NN distance is far below mean pairwise distance") {
    val vs = ds.vs
    val rnd = new java.util.Random(902)
    val sampled = Array.fill(60)(rnd.nextInt(vs.n))
    val nnDists = sampled.map { i =>
      (0 until vs.n).filter(_ != i).map(j => vs.dist2(i, j)).min.toDouble
    }
    val pairDists = sampled.flatMap(i => sampled.filter(_ != i).take(10).map(j => vs.dist2(i, j).toDouble))
    assert(nnDists.sum / nnDists.length < pairDists.sum / pairDists.length / 3)
  }

  test("the five analogs carry the configured dimensions") {
    val all = VectorData.datasets(spark, n = 64, nQueries = 4)
    assert(all.map(_.name) ==
      Seq("wit-lite", "tripclick-lite", "redcaps-lite", "ytrgb-lite", "ytaudio-lite"))
    assert(all.map(_.dim) == Seq(96, 48, 32, 64, 16))
    assert(all.forall(_.n == 64))
  }

  test("rawVectorBytes is 4 * n * dim") {
    assert(ds.rawVectorBytes == 4L * 400 * 8)
  }
}
