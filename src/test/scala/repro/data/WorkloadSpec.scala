package repro.data

import org.scalatest.funsuite.AnyFunSuite

class WorkloadSpec extends AnyFunSuite {

  private val n = 4096

  for (exp <- 0 to 8) {
    test(s"fixed workload 2^-$exp: correct length and bounds") {
      val qs = Workload.fixed(n, 50, exp)
      assert(qs.length == 50)
      for (q <- qs) {
        assert(q.L >= 0 && q.R < n && q.L <= q.R)
        assert(q.R - q.L + 1 == n >> exp)
      }
    }
  }

  test("fixed workload is deterministic per seed, varies across seeds") {
    val a = Workload.fixed(n, 20, 3, seed = 1)
    val b = Workload.fixed(n, 20, 3, seed = 1)
    val c = Workload.fixed(n, 20, 3, seed = 2)
    assert(a.toSeq == b.toSeq)
    assert(a.toSeq != c.toSeq)
  }

  test("mixed workload assigns fraction 2^-(qid mod 10)") {
    val qs = Workload.mixed(n, 100)
    for (q <- qs) {
      val exp = q.qid % 10
      assert(q.R - q.L + 1 == math.max(1, n >> exp), s"qid ${q.qid}")
    }
  }

  test("mixed workload covers all ten fractions") {
    val qs = Workload.mixed(n, 100)
    val lens = qs.map(q => q.R - q.L + 1).toSet
    assert(lens.size == 10)
  }

  test("sharedMixed reuses exactly nRanges distinct ranges") {
    val (ranges, qs) = Workload.sharedMixed(n, 100)
    assert(ranges.length == 10)
    assert(qs.map(q => (q.L, q.R)).toSet == ranges.toSet)
    assert(qs.forall(q => ranges.contains((q.L, q.R))))
  }

  test("sharedMixed ranges span multiple scales") {
    val (ranges, _) = Workload.sharedMixed(n, 100)
    val lens = ranges.map { case (l, r) => r - l + 1 }
    assert(lens.max > lens.min * 4)
  }

  test("multiAttr workload: both ranges near the expected fraction") {
    val qs = Workload.multiAttr(n, 50, exp = 2)
    for (q <- qs) {
      assert(q.R1 - q.L1 + 1 == n >> 2)
      assert(q.R2 - q.L2 + 1 == n >> 2)
      assert(q.L1 >= 0 && q.R1 < n && q.L2 >= 0 && q.R2 < n)
    }
  }

  test("range locations vary across queries") {
    val qs = Workload.fixed(n, 50, 4)
    assert(qs.map(_.L).distinct.length > 20)
  }

  test("empty fraction is rejected") {
    intercept[IllegalArgumentException] { Workload.fixed(16, 5, 10) }
  }
}
