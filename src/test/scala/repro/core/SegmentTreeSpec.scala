package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SegmentTreeSpec extends AnyFunSuite {

  test("mid matches the paper's floor((l+r)/2)") {
    assert(SegmentTree.mid(0, 15) == 7)
    assert(SegmentTree.mid(0, 1) == 0)
    assert(SegmentTree.mid(3, 8) == 5)
  }

  test("childContaining picks the correct half") {
    assert(TreeOracles.childContaining(0, 15, 6) == (0, 7))
    assert(TreeOracles.childContaining(0, 15, 8) == (8, 15))
    assert(TreeOracles.childContaining(0, 7, 7) == (4, 7))
    assert(TreeOracles.childContaining(4, 7, 4) == (4, 5))
  }

  test("depth matches log2 for powers of two (Figure 1: n=16 has 5 layers)") {
    assert(SegmentTree.depth(16) == 5)
    assert(SegmentTree.depth(1) == 1)
    assert(SegmentTree.depth(2) == 2)
    assert(SegmentTree.depth(1024) == 11)
  }

  test("depth is ceil(log2 n)+1 for arbitrary n") {
    assert(SegmentTree.depth(3) == 3)
    assert(SegmentTree.depth(1000) == 11)
    assert(SegmentTree.depth(17) == 6)
  }

  for (n <- Seq(16, 17, 100, 1000)) {
    test(s"every rank appears in exactly one segment per layer (n=$n)") {
      val d = SegmentTree.depth(n)
      for (lay <- 0 until d) {
        val covered = Array.fill(n)(0)
        // enumerate segments at this layer via each rank's segment
        for (u <- 0 until n) {
          val (l, r) = TreeOracles.segmentAt(n, lay, u)
          assert(l <= u && u <= r)
          covered(u) += 1
        }
        assert(covered.forall(_ == 1))
      }
    }

    test(s"segmentAt is consistent: same segment for all members (n=$n)") {
      for (lay <- 0 until SegmentTree.depth(n); u <- 0 until n by math.max(1, n / 37)) {
        val (l, r) = TreeOracles.segmentAt(n, lay, u)
        for (v <- l to r) assert(TreeOracles.segmentAt(n, lay, v) == (l, r))
      }
    }
  }

  test("layer-0 segment is the full range") {
    assert(TreeOracles.segmentAt(100, 0, 42) == (0, 99))
  }

  test("segmentAt bottoms out at the leaf") {
    assert(TreeOracles.segmentAt(16, 4, 5) == (5, 5))
    assert(TreeOracles.segmentAt(16, 99, 5) == (5, 5)) // beyond the leaf stays put
  }

  test("segmentsAtLayer partitions the rank space down to layer depth - 2") {
    for (n <- Seq(2, 3, 17, 333, 600); lay <- 0 to SegmentTree.depth(n) - 2) {
      val covered = Array.fill(n)(0)
      for ((l, r) <- SegmentTree.segmentsAtLayer(n, lay); u <- l to r) covered(u) += 1
      assert(covered.forall(_ == 1), s"n=$n lay=$lay")
    }
  }

  test("segmentsAtLayer matches segmentAt for every member") {
    for (lay <- 0 until SegmentTree.depth(600)) {
      for ((l, r) <- SegmentTree.segmentsAtLayer(600, lay); u <- l to r)
        assert(TreeOracles.segmentAt(600, lay, u) == (l, r))
    }
  }

  test("intersectLen basic cases") {
    assert(SegmentTree.intersectLen(0, 9, 5, 20) == 5)
    assert(SegmentTree.intersectLen(0, 9, 10, 20) == 0)
    assert(SegmentTree.intersectLen(3, 7, 0, 10) == 5)
    assert(SegmentTree.intersectLen(3, 7, 5, 5) == 1)
  }

  for (n <- Seq(16, 31, 100, 513)) {
    test(s"decompose covers the range exactly, disjointly (n=$n, randomized)") {
      val rnd = new java.util.Random(n)
      for (_ <- 0 until 30) {
        val a = rnd.nextInt(n); val b = rnd.nextInt(n)
        val (ql, qr) = (math.min(a, b), math.max(a, b))
        val pieces = SegmentTree.decompose(n, ql, qr)
        val covered = Array.fill(n)(0)
        for ((lay, l, r) <- pieces) {
          assert(TreeOracles.segmentAt(n, lay, l) == (l, r),
            s"piece ($lay,$l,$r) is not a tree segment")
          for (u <- l to r) covered(u) += 1
        }
        for (u <- 0 until n)
          assert(covered(u) == (if (u >= ql && u <= qr) 1 else 0), s"rank $u")
      }
    }
  }

  test("decompose of the full range is the root") {
    assert(SegmentTree.decompose(64, 0, 63) == Seq((0, 0, 63)))
  }

  test("decompose piece count is O(log n)") {
    val n = 1 << 14
    for ((ql, qr) <- Seq((1, n - 2), (100, 10000), (5000, 5001))) {
      val pieces = SegmentTree.decompose(n, ql, qr)
      assert(pieces.size <= 2 * SegmentTree.depth(n), s"range [$ql,$qr]: ${pieces.size}")
    }
  }

  test("Figure 1 example: decompose [5,14] (0-based for the paper's [6,15]) over n=16") {
    // Paper: query [6,15] (1-based) = [5,14] 0-based decomposes into
    // segments [9,12],[7,8],[13,14],[6],[15] (1-based) = 5 pieces.
    val pieces = SegmentTree.decompose(16, 5, 14)
    assert(pieces.size == 5)
    assert(pieces.map { case (_, l, r) => (l, r) }.toSet ==
      Set((8, 11), (6, 7), (12, 13), (5, 5), (14, 14)))
  }
}
