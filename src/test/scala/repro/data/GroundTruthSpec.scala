package repro.data

import repro.{ExactOracles, Oracle, SparkSpec, TestData}

/** Validates the exact ground truth three ways: local scan vs Spark
  * dataflow vs the DuckDB oracle. Every bench recall is measured against
  * this ground truth, so these tests anchor the whole evaluation.
  */
class GroundTruthSpec extends SparkSpec {

  private val n = 120
  private val dim = 4
  private val vs = TestData.randomVs(n, dim, seed = 151)
  private val queries = TestData.randomQueries(6, dim, seed = 152)
  private val ranges: Array[(Int, Int)] =
    Array((0, 119), (10, 50), (100, 119), (60, 61), (0, 9), (55, 90))

  private lazy val dataDf = {
    val rows = (0 until n).map { i =>
      val v = vs.vector(i)
      (i, v(0).toDouble, v(1).toDouble, v(2).toDouble, v(3).toDouble)
    }
    spark.createDataFrame(rows).toDF("id", "v0", "v1", "v2", "v3")
  }

  private def duckDistExpr(q: Array[Float]): String =
    (0 until dim).map { j =>
      s"(CAST(v$j AS DOUBLE) - (${q(j).toDouble}))*(CAST(v$j AS DOUBLE) - (${q(j).toDouble}))"
    }.mkString(" + ")

  test("Spark ground truth equals the local scan") {
    val sparkGt = GroundTruth.computeSpark(spark, vs, queries, ranges, k = 10)
    val localGt = ExactOracles.groundTruth(vs, queries, ranges, k = 10)
    for (qi <- queries.indices)
      assert(sparkGt(qi).toSeq == localGt(qi).toSeq, s"query $qi")
  }

  /** A fixed permutation of the ids, as a second attribute's ranks. */
  private lazy val attr2: Array[Int] = {
    val rnd = new java.util.Random(153)
    val a2 = Array.tabulate(n)(identity)
    for (i <- (1 until n).reverse) {
      val j = rnd.nextInt(i + 1); val t = a2(i); a2(i) = a2(j); a2(j) = t
    }
    a2
  }

  test("Spark ground truth equals the local scan with the second-attribute predicate") {
    val ranges2 = Array((20, 80), (0, 119), (0, 5), (50, 50), (30, 100), (60, 119))
    val sparkGt = GroundTruth.computeSpark(spark, vs, queries, ranges, k = 10,
      attr2Rank = attr2, ranges2 = ranges2)
    val localGt = ExactOracles.groundTruth(vs, queries, ranges, k = 10,
      pred = (qi, i) => attr2(i) >= ranges2(qi)._1 && attr2(i) <= ranges2(qi)._2)
    for (qi <- queries.indices)
      assert(sparkGt(qi).toSeq == localGt(qi).toSeq, s"query $qi")
  }

  test("Spark ground truth equals the local scan when some rank blocks are empty") {
    // Fewer objects than Spark's default parallelism (one rank block per
    // task), so some blocks hold no rank.
    val tiny = TestData.randomVs(math.max(1, spark.sparkContext.defaultParallelism / 2), dim, seed = 154)
    val tinyRanges = Array.fill(queries.length)((0, tiny.n - 1)).updated(1, (tiny.n - 1, tiny.n - 1))
    val sparkGt = GroundTruth.computeSpark(spark, tiny, queries, tinyRanges, k = 10)
    val localGt = ExactOracles.groundTruth(tiny, queries, tinyRanges, k = 10)
    for (qi <- queries.indices)
      assert(sparkGt(qi).toSeq == localGt(qi).toSeq, s"query $qi")
  }

  test("Spark ground truth equals the local scan on ranges inside one rank block") {
    val blocks = spark.sparkContext.defaultParallelism
    // The second block of ranks, and a range strictly inside it when it
    // holds three or more.
    val lo = n / blocks
    val hi = 2 * n / blocks - 1
    val inner = if (hi - lo >= 2) (lo + 1, hi - 1) else (lo, hi)
    val blockRanges = Array.tabulate(queries.length)(qi => if (qi % 2 == 0) (lo, hi) else inner)
    val sparkGt = GroundTruth.computeSpark(spark, vs, queries, blockRanges, k = 10)
    val localGt = ExactOracles.groundTruth(vs, queries, blockRanges, k = 10)
    for (qi <- queries.indices)
      assert(sparkGt(qi).toSeq == localGt(qi).toSeq, s"query $qi")
  }

  for (qi <- queries.indices) {
    test(s"ground truth top-10 matches DuckDB (query $qi, range ${ranges(qi)})") {
      import spark.implicits._
      val (l, r) = ranges(qi)
      val gt = GroundTruth.computeSpark(spark, vs, queries, ranges, k = 10)(qi)
      val sparkDf = gt.toSeq.toDF("id")
      Oracle.assertEquivalent(
        sparkDf,
        s"""SELECT CAST(id AS INT) AS id FROM data
           |WHERE CAST(id AS INT) BETWEEN $l AND $r
           |ORDER BY ${duckDistExpr(queries(qi))} ASC, CAST(id AS INT) ASC
           |LIMIT 10""".stripMargin,
        "data" -> dataDf)
    }
  }

  test("in-range count matches DuckDB") {
    import spark.implicits._
    val (l, r) = (17, 93)
    val cnt = (l to r).size.toLong
    val sparkDf = Seq(cnt).toDF("cnt")
    Oracle.assertEquivalent(
      sparkDf,
      s"SELECT COUNT(*) AS cnt FROM data WHERE CAST(id AS INT) BETWEEN $l AND $r",
      "data" -> dataDf)
  }

  test("multi-attribute conjunction ground truth matches DuckDB") {
    import spark.implicits._
    val rows = (0 until n).map { i =>
      val v = vs.vector(i)
      (i, v(0).toDouble, v(1).toDouble, v(2).toDouble, v(3).toDouble, attr2(i))
    }
    val df2 = spark.createDataFrame(rows).toDF("id", "v0", "v1", "v2", "v3", "a2")
    val ranges2 = Array.fill(queries.length)((20, 80))
    val gt = GroundTruth.computeSpark(spark, vs, queries, ranges, k = 10,
      attr2Rank = attr2, ranges2 = ranges2)
    for (qi <- Seq(0, 1, 5)) {
      val (l, r) = ranges(qi)
      val sparkDf = gt(qi).toSeq.toDF("id")
      Oracle.assertEquivalent(
        sparkDf,
        s"""SELECT CAST(id AS INT) AS id FROM data
           |WHERE CAST(id AS INT) BETWEEN $l AND $r
           |  AND CAST(a2 AS INT) BETWEEN 20 AND 80
           |ORDER BY ${duckDistExpr(queries(qi))} ASC, CAST(id AS INT) ASC
           |LIMIT 10""".stripMargin,
        "data" -> df2)
    }
  }

  test("recall helper: exact result has recall 1, disjoint has 0") {
    assert(GroundTruth.recall(Array(1, 2, 3), Array(3, 2, 1)) == 1.0)
    assert(GroundTruth.recall(Array(1, 2, 3), Array(4, 5, 6)) == 0.0)
    assert(GroundTruth.recall(Array(1, 2, 3, 4), Array(1, 2)) == 0.5)
    assert(GroundTruth.recall(Array.empty[Int], Array.empty[Int]) == 1.0)
  }

  test("meanRecall averages per query") {
    val gt = Array(Array(1, 2), Array(3, 4))
    val got = Array(Array(1, 2), Array(3, 9))
    assert(math.abs(GroundTruth.meanRecall(gt, got) - 0.75) < 1e-9)
  }

  test("ground truth with k larger than range returns all in-range ids") {
    val gt = GroundTruth.computeSpark(spark, vs, queries, Array.fill(queries.length)((60, 61)), k = 10)
    for (qi <- queries.indices) assert(gt(qi).sorted.toSeq == Seq(60, 61))
  }
}
