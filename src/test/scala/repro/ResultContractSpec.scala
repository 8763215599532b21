package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core.{BasicSearch, IRangeGraph, MultiAttr}
import repro.graph.{BruteForce, Candidate, Hnsw, SortedList}

/** The result contract every method obeys: ids in range, distinct, sorted
  * ascending by (distance, id) with each distance equal to `vs.dist2(id, q)`,
  * and at most min(k, |range|) of them — exactly that many for the exact
  * methods. Ranges cover the edge cases: single objects (L = R), the full
  * range, and ranges shorter than k.
  */
class ResultContractSpec extends AnyFunSuite {

  private val n = 512
  private val m = 8
  private val ef = 40
  private val k = 10
  private val beam = 20
  private val vs = TestData.randomVs(n, 16, seed = 301)
  private val queries = TestData.randomQueries(4, 16, seed = 302)

  private val ranges: Seq[(Int, Int)] = Seq(
    (0, 0), (137, 137), (300, 300), (n - 1, n - 1), // L = R
    (0, n - 1), // full
    (5, 9), (250, 256), (n - 4, n - 1), // shorter than k
  )

  private val attr2Rank: Array[Int] = {
    val rnd = new java.util.Random(303)
    val a = Array.tabulate(n)(identity)
    for (i <- (1 until n).reverse) {
      val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t
    }
    a
  }
  private val ranges2: Seq[(Int, Int)] = Seq((0, n - 1), (100, 400), (42, 42))

  private def checkContract(what: String, q: Array[Float], inRange: Int => Boolean,
                            rangeSize: Int, exact: Boolean, res: Array[Candidate]): Unit = {
    val ids = res.map(_.id)
    assert(ids.forall(inRange), s"$what: id out of range in ${ids.mkString(",")}")
    assert(ids.distinct.length == ids.length, s"$what: repeated id in ${ids.mkString(",")}")
    for (c <- res) assert(c.dist == vs.dist2(c.id, q), s"$what: distance of ${c.id}")
    for (Array(a, b) <- res.sliding(2))
      assert(SortedList.less(a.dist, a.id, b.dist, b.id), s"$what: $a before $b")
    val want = math.min(k, rangeSize)
    if (exact) assert(res.length == want, s"$what: ${res.length} results, want $want")
    else assert(res.length <= want, s"$what: ${res.length} results, at most $want")
  }

  private lazy val ir = IRangeGraph.build(vs, m, ef)
  private lazy val hnsw = Hnsw.buildAll(vs, m, ef)
  private lazy val milvus = MilvusLike.build(vs, parts = 4, m = m, efConstruction = ef)
  private lazy val superPost = SuperPostFiltering.build(vs, m, ef)
  private lazy val serf = SegmentSerf.build(vs, grid = 4, m = m, efConstruction = ef)
  private lazy val fVamana = FilteredVamana.build(vs, buckets = 8, m = m, efConstruction = ef)
  private lazy val sVamana = StitchedVamana.build(vs, buckets = 8, m = m, efConstruction = ef)
  private lazy val oracle = OracleHnsw.build(vs, ranges.toArray, m, ef)

  private val methods = Seq[(String, Boolean, (Array[Float], Int, Int, Int) => Array[Candidate])](
    ("BruteForce.topK", true, (q, l, r, k) => BruteForce.topK(vs, q, l, r, k)),
    ("PreFiltering", true, (q, l, r, k) => PreFiltering.search(vs, q, l, r, k)),
    ("IRangeGraph (skipLayers = true)", false, (q, l, r, k) => ir.search(q, l, r, k, beam)),
    ("IRangeGraph (skipLayers = false)", false,
      (q, l, r, k) => ir.search(q, l, r, k, beam, skipLayers = false)),
    ("BasicSearch", false, (q, l, r, k) => BasicSearch.search(vs, ir.graphs, q, l, r, k, beam)),
    ("PostFiltering", false, (q, l, r, k) => PostFiltering.search(hnsw, q, l, r, k, beam)),
    ("InFiltering", false, (q, l, r, k) => InFiltering.search(hnsw, q, l, r, k, beam)),
    ("MilvusLike", false, (q, l, r, k) => milvus.search(q, l, r, k, beam)),
    ("SuperPostFiltering", false, (q, l, r, k) => superPost.search(q, l, r, k, beam)),
    ("SegmentSerf", false, (q, l, r, k) => serf.search(q, l, r, k, beam)),
    ("FilteredVamana", false, (q, l, r, k) => fVamana.search(q, l, r, k, beam)),
    ("StitchedVamana", false, (q, l, r, k) => sVamana.search(q, l, r, k, beam)),
    ("OracleHnsw", false, (q, l, r, k) => oracle.search(q, l, r, k, beam)),
  )

  for ((name, exact, search) <- methods)
    test(s"$name obeys the result contract") {
      for ((l, r) <- ranges; (q, qi) <- queries.zipWithIndex)
        checkContract(s"[$l,$r] query $qi", q, i => i >= l && i <= r, r - l + 1, exact,
          search(q, l, r, k))
    }

  /** Every public search rejects a malformed query: k = 0 (on a short and
    * on the full range, which take different paths in Milvus), a wrong
    * dimension, a NaN value, L > R and R = n.
    */
  private def rejectsMalformed(search: (Array[Float], Int, Int, Int) => Array[Candidate]): Unit = {
    val q = queries(0)
    val nan = q.clone()
    nan(3) = Float.NaN
    for ((what, run) <- Seq[(String, () => Array[Candidate])](
           ("k = 0 on [5,9]", () => search(q, 5, 9, 0)),
           ("k = 0 on the full range", () => search(q, 0, n - 1, 0)),
           ("wrong dimension", () => search(q.take(q.length - 1), 0, n - 1, k)),
           ("NaN value", () => search(nan, 0, n - 1, k)),
           ("L > R", () => search(q, 10, 9, k)),
           ("R = n", () => search(q, 0, n, k))))
      withClue(what)(intercept[IllegalArgumentException](run()))
  }

  // BruteForce.topK is the scan under the exact methods, not a public search.
  for ((name, _, search) <- methods if name != "BruteForce.topK")
    test(s"$name rejects a malformed query")(rejectsMalformed(search))

  for ((label, strategy) <- Seq[(String, Int => MultiAttr.Strategy)](
         ("PostFilter", _ => MultiAttr.PostFilter),
         ("InFilter", _ => MultiAttr.InFilter),
         ("Probabilistic", qi => MultiAttr.Probabilistic(500L + qi))))
    test(s"MultiAttr $label obeys the result contract on both ranges") {
      for ((l, r) <- ranges; (l2, r2) <- ranges2; (q, qi) <- queries.zipWithIndex) {
        val inBoth = (i: Int) => i >= l && i <= r && attr2Rank(i) >= l2 && attr2Rank(i) <= r2
        checkContract(s"[$l,$r] x [$l2,$r2] query $qi", q, inBoth, (l to r).count(inBoth), exact = false,
          MultiAttr.search(ir, attr2Rank, q, l, r, l2, r2, k, beam, strategy(qi)))
      }
    }

  test("MultiAttr rejects a malformed query with every strategy") {
    for (strategy <- Seq(MultiAttr.PostFilter, MultiAttr.InFilter, MultiAttr.Probabilistic(7L))) {
      rejectsMalformed((q, l, r, k) => MultiAttr.search(ir, attr2Rank, q, l, r, 0, n - 1, k, beam, strategy))
      withClue("L2 > R2")(intercept[IllegalArgumentException](
        MultiAttr.search(ir, attr2Rank, queries(0), 0, n - 1, 10, 9, k, beam, strategy)))
    }
  }
}
