package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class BruteForceSpec extends AnyFunSuite {

  private val vs = TestData.randomVs(100, 8, seed = 21)
  private val queries = TestData.randomQueries(5, 8, seed = 22)

  private def naive(q: Array[Float], lo: Int, hi: Int, k: Int,
                    pred: Int => Boolean = _ => true): Seq[Int] =
    (lo to hi).filter(pred)
      .map(i => Candidate(i, vs.dist2(i, q)))
      .sortBy(c => (c.dist, c.id)).take(k).map(_.id)

  for ((q, qi) <- queries.zipWithIndex) {
    test(s"topK matches naive sort on full range (query $qi)") {
      assert(BruteForce.topKIds(vs, q, 0, 99, 10).toSeq == naive(q, 0, 99, 10))
    }
    test(s"topK matches naive sort on sub-range (query $qi)") {
      assert(BruteForce.topKIds(vs, q, 30, 70, 7).toSeq == naive(q, 30, 70, 7))
    }
  }

  test("topK respects the predicate") {
    val q = queries(0)
    val got = BruteForce.topKIds(vs, q, 0, 99, 10, _ % 2 == 0)
    assert(got.forall(_ % 2 == 0))
    assert(got.toSeq == naive(q, 0, 99, 10, _ % 2 == 0))
  }

  test("topK returns fewer than k when the range is small") {
    val got = BruteForce.topK(vs, queries(1), 10, 13, 10)
    assert(got.length == 4)
    assert(got.map(_.id).sorted.toSeq == Seq(10, 11, 12, 13))
  }

  test("topK results are sorted ascending by (dist, id)") {
    val got = BruteForce.topK(vs, queries(2), 0, 99, 20)
    assert(got.sliding(2).forall {
      case Array(a, b) => a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
      case _ => true
    })
  }

  test("topK with empty effective range returns empty") {
    assert(BruteForce.topK(vs, queries(0), 50, 49, 5).isEmpty)
  }

  test("topK with k = 100 over 100 ids matches naive sort") {
    assert(BruteForce.topKIds(vs, queries(3), 0, 99, 100).toSeq == naive(queries(3), 0, 99, 100))
  }

  test("topK rejects k < 1") {
    for (k <- Seq(0, -1)) {
      val e = intercept[IllegalArgumentException](BruteForce.topK(vs, queries(0), 0, 99, k))
      assert(e.getMessage.contains(s"k must be >= 1, got $k"))
    }
  }

  test("mergeTopK dedupes and globally sorts") {
    val a = Array(Candidate(1, 1f), Candidate(2, 3f))
    val b = Array(Candidate(2, 3f), Candidate(3, 2f))
    val got = BruteForce.mergeTopK(Seq(a, b), 10)
    assert(got.map(_.id).toSeq == Seq(1, 3, 2))
  }

  test("mergeTopK merges disjoint lists in (dist, id) order, a distance tie broken by id") {
    val a = Array(Candidate(1, 1f), Candidate(4, 2f), Candidate(2, 3f))
    val b = Array(Candidate(3, 2f), Candidate(5, 4f))
    val got = BruteForce.mergeTopK(Seq(a, b), 10)
    assert(got.toSeq == Seq(Candidate(1, 1f), Candidate(3, 2f), Candidate(4, 2f),
      Candidate(2, 3f), Candidate(5, 4f)))
    assert(BruteForce.mergeTopK(Seq(b, a), 3).toSeq == got.take(3).toSeq)
  }

  test("mergeTopK truncates to k") {
    val a = Array.tabulate(5)(i => Candidate(i, i.toFloat))
    assert(BruteForce.mergeTopK(Seq(a), 3).map(_.id).toSeq == Seq(0, 1, 2))
  }

  test("SortedList.less agrees with the tuple ordering on (dist, id)") {
    val tuple = Ordering.by((c: Candidate) => (c.dist, c.id))
    val dists = Array(0.0f, -0.0f, Float.NaN, 1.0f, 1.0f, 2.5f, Float.PositiveInfinity, 1e-30f)
    val rnd = new java.util.Random(23)
    def pick(): Candidate =
      if (rnd.nextBoolean()) Candidate(rnd.nextInt(4), dists(rnd.nextInt(dists.length)))
      else Candidate(rnd.nextInt(), rnd.nextFloat())
    for (_ <- 0 until 5000) {
      val a = pick(); val b = pick()
      assert(SortedList.less(a.dist, a.id, b.dist, b.id) == tuple.lt(a, b), s"$a before $b")
      assert(SortedList.less(b.dist, b.id, a.dist, a.id) == tuple.lt(b, a), s"$b before $a")
    }
  }
}
