package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines._
import repro.core.{BasicSearch, ElementalGraphBuilder, IRangeGraph, MultiAttr}
import repro.graph.{BruteForce, Candidate, Hnsw, SortedList}

/** The result contract every method obeys: ids in range, distinct, sorted
  * ascending by (distance, id) with each distance equal to `vs.dist2(id, q)`,
  * and at most min(k, |range|) of them. Ranges cover the edge cases: single
  * objects (L = R), the full range, and ranges shorter than k.
  *
  * Each method also pins its exact number of short cases: (range, query)
  * pairs that return fewer than min(k, |range|) ids. The exact methods have
  * none. The filtered baselines fall short on small ranges, as Section 5 of
  * the paper reports; that shortfall is recorded here, not patched, so a
  * change in a method's failure mode shows up as a test change.
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

  /** Checks one result; true when it holds fewer than min(k, |range|) ids. */
  private def checkContract(what: String, q: Array[Float], inRange: Int => Boolean,
                            rangeSize: Int, res: Array[Candidate]): Boolean = {
    val ids = res.map(_.id)
    assert(ids.forall(inRange), s"$what: id out of range in ${ids.mkString(",")}")
    assert(ids.distinct.length == ids.length, s"$what: repeated id in ${ids.mkString(",")}")
    for (c <- res) assert(c.dist == vs.dist2(c.id, q), s"$what: distance of ${c.id}")
    for (Array(a, b) <- res.sliding(2))
      assert(SortedList.less(a.dist, a.id, b.dist, b.id), s"$what: $a before $b")
    val want = math.min(k, rangeSize)
    assert(res.length <= want, s"$what: ${res.length} results, at most $want")
    res.length < want
  }

  private lazy val ir = new IRangeGraph(vs, ElementalGraphBuilder.build(vs, m, ef))
  private lazy val hnsw = Hnsw.buildAll(vs, m, ef)
  private lazy val milvus = new MilvusLike(vs, parts = 4, m = m, efConstruction = ef)
  private lazy val superPost = new SuperPostFiltering(vs, m, ef)
  private lazy val serf = new SegmentSerf(vs, grid = 4, m = m, efConstruction = ef)
  private lazy val fVamana = new FilteredVamana(vs, buckets = 8, m = m, efConstruction = ef)
  private lazy val sVamana = new StitchedVamana(vs, buckets = 8, m = m, efConstruction = ef)
  private lazy val oracle = new OracleHnsw(vs, ranges.toArray, m, ef)

  /** (name, short cases out of the 8 ranges x 4 queries, search). */
  private val methods = Seq[(String, Int, (Array[Float], Int, Int, Int) => Array[Candidate])](
    ("BruteForce.topK", 0, (q, l, r, k) => BruteForce.topK(vs, q, l, r, k)),
    ("PreFiltering", 0, (q, l, r, k) => PreFiltering.search(vs, q, l, r, k)),
    ("IRangeGraph (skipLayers = true)", 0, (q, l, r, k) => ir.search(q, l, r, k, beam)),
    ("IRangeGraph (skipLayers = false)", 0,
      (q, l, r, k) => ir.search(q, l, r, k, beam, skipLayers = false)),
    ("BasicSearch", 0, (q, l, r, k) => BasicSearch.search(vs, ir.graphs, q, l, r, k, beam)),
    ("PostFiltering", 24, (q, l, r, k) => PostFiltering.search(hnsw, q, l, r, k, beam)),
    ("InFiltering", 12, (q, l, r, k) => InFiltering.search(hnsw, q, l, r, k, beam)),
    ("MilvusLike", 0, (q, l, r, k) => milvus.search(q, l, r, k, beam)),
    ("SuperPostFiltering", 3, (q, l, r, k) => superPost.search(q, l, r, k, beam)),
    ("SegmentSerf", 8, (q, l, r, k) => serf.search(q, l, r, k, beam)),
    ("FilteredVamana", 28, (q, l, r, k) => fVamana.search(q, l, r, k, beam)),
    ("StitchedVamana", 9, (q, l, r, k) => sVamana.search(q, l, r, k, beam)),
    ("OracleHnsw", 0, (q, l, r, k) => oracle.search(q, l, r, k, beam)),
  )

  for ((name, shortCases, search) <- methods)
    test(s"$name obeys the result contract") {
      val short = for {
        (l, r) <- ranges; (q, qi) <- queries.zipWithIndex
        what = s"[$l,$r] query $qi"
        if checkContract(what, q, i => i >= l && i <= r, r - l + 1, search(q, l, r, k))
      } yield what
      assert(short.length == shortCases, s"short results: ${short.mkString(", ")}")
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

  // (label, short cases out of the 8 x 3 range pairs x 4 queries, strategy)
  for ((label, shortCases, strategy) <- Seq[(String, Int, Int => MultiAttr.Strategy)](
         ("PostFilter", 4, _ => MultiAttr.PostFilter),
         ("InFilter", 4, _ => MultiAttr.InFilter),
         ("Probabilistic", 8, qi => MultiAttr.Probabilistic(500L + qi))))
    test(s"MultiAttr $label obeys the result contract on both ranges") {
      val short = for {
        (l, r) <- ranges; (l2, r2) <- ranges2; (q, qi) <- queries.zipWithIndex
        what = s"[$l,$r] x [$l2,$r2] query $qi"
        inBoth = (i: Int) => i >= l && i <= r && attr2Rank(i) >= l2 && attr2Rank(i) <= r2
        if checkContract(what, q, inBoth, (l to r).count(inBoth),
          MultiAttr.search(ir, attr2Rank, q, l, r, l2, r2, k, beam, strategy(qi)))
      } yield what
      assert(short.length == shortCases, s"short results: ${short.mkString(", ")}")
    }

  test("MultiAttr rejects a malformed query with every strategy") {
    for (strategy <- Seq(MultiAttr.PostFilter, MultiAttr.InFilter, MultiAttr.Probabilistic(7L))) {
      rejectsMalformed((q, l, r, k) => MultiAttr.search(ir, attr2Rank, q, l, r, 0, n - 1, k, beam, strategy))
      withClue("L2 > R2")(intercept[IllegalArgumentException](
        MultiAttr.search(ir, attr2Rank, queries(0), 0, n - 1, 10, 9, k, beam, strategy)))
    }
  }
}
