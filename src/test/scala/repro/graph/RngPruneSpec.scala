package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.{ExactOracles, TestData}

class RngPruneSpec extends AnyFunSuite {

  /** The candidates of u among `ids`, offered in the order given. */
  private def listFor(vs: VecStore, u: Int, ids: Seq[Int]): SortedList = {
    val l = new SortedList(ids.length)
    for (i <- ids if i != u) l.insert(vs.dist2(u, i), i)
    l
  }

  /** The kept neighbors of u, each with its distance to u. */
  private def pruneFor(vs: VecStore, u: Int, ids: Seq[Int], m: Int,
                       alpha: Float = 1.0f): Array[Candidate] =
    RngPrune.prune(vs, listFor(vs, u, ids), m, alpha).map(id => Candidate(id, vs.dist2(u, id)))

  test("nearest candidate is always kept") {
    val vs = TestData.randomVs(50, 6, seed = 31)
    for (u <- 0 until 10) {
      val kept = pruneFor(vs, u, 0 until 50, m = 8)
      val nearest = (0 until 50).filter(_ != u).minBy(i => (vs.dist2(u, i), i))
      assert(kept.head.id == nearest)
    }
  }

  test("output respects the degree cap m") {
    val vs = TestData.randomVs(80, 4, seed = 32)
    for (m <- Seq(1, 3, 8, 16)) {
      val kept = pruneFor(vs, 0, 0 until 80, m)
      assert(kept.length <= m)
    }
  }

  test("kept edges satisfy the RNG invariant among themselves") {
    // No kept neighbor may prune another kept neighbor (alpha = 1).
    val vs = TestData.randomVs(60, 5, seed = 33)
    for (u <- 0 until 15) {
      val kept = pruneFor(vs, u, 0 until 60, m = 60)
      for (c <- kept; s <- kept if s.dist < c.dist) {
        assert(vs.dist2(s.id, c.id) >= c.dist,
          s"kept edge ($u,${c.id}) is pruned by kept ${s.id}")
      }
    }
  }

  test("greedy kept-set prune keeps a superset of the exact RNG edges") {
    // Greedy only checks candidates against *kept* closer neighbors, so a
    // pruner that was itself pruned can no longer eliminate a candidate:
    // every exact-RNG edge survives, possibly plus a few extra (this is the
    // standard HNSW/NSG/DiskANN heuristic the paper builds on).
    val vs = TestData.randomVs(40, 4, seed = 34)
    val exact = ExactOracles.exactRng(vs, 0, 39)
    for (u <- 0 until 40) {
      val kept = pruneFor(vs, u, 0 until 40, m = 40).map(_.id).toSet
      assert(exact(u).toSet.subsetOf(kept), s"node $u lost an exact-RNG edge")
    }
  }

  test("alpha > 1 (RobustPrune) prunes less aggressively on aggregate") {
    // Per decision, alpha*d(s,c) < d(u,c) is harder to satisfy at larger
    // alpha, so across many nodes the robust prune keeps at least as many
    // edges. (Per-node strict supersets don't hold: the greedily grown kept
    // sets diverge between the two runs.)
    val vs = TestData.randomVs(50, 6, seed = 35)
    val rngTotal = (0 until 50).map(u => pruneFor(vs, u, 0 until 50, m = 50, alpha = 1.0f).length).sum
    val robustTotal = (0 until 50).map(u => pruneFor(vs, u, 0 until 50, m = 50, alpha = 1.2f).length).sum
    assert(robustTotal >= rngTotal, s"robust=$robustTotal rng=$rngTotal")
    // And with an identical single kept neighbor, the rule itself is weaker:
    val u = 0
    val cands = (1 until 50).map(i => Candidate(i, vs.dist2(u, i))).toArray
    val prunedAt1 = cands.count(c => cands.exists(s =>
      s.dist < c.dist && 1.0f * vs.dist2(s.id, c.id) < c.dist))
    val prunedAt12 = cands.count(c => cands.exists(s =>
      s.dist < c.dist && 1.2f * vs.dist2(s.id, c.id) < c.dist))
    assert(prunedAt12 <= prunedAt1)
  }

  test("exact RNG is monotone under taking subsets (Section 3.2.2's argument)") {
    // "If a candidate can be pruned by an object in the subset, it can also
    // be pruned in the full set": an edge kept on the superset whose
    // endpoints lie in the subset is also kept on the subset.
    val vs = TestData.randomVs(30, 4, seed = 36)
    val small = ExactOracles.exactRng(vs, 0, 14)
    val big = ExactOracles.exactRng(vs, 0, 29)
    for (u <- 0 until 15; v <- big(u) if v < 15)
      assert(small(u).contains(v), s"edge ($u,$v) kept on superset, pruned on subset")
  }

  test("empty candidate list yields empty result") {
    val vs = TestData.randomVs(5, 3, seed = 37)
    assert(pruneFor(vs, 0, Seq.empty, 4).isEmpty)
  }

  test("prune does not depend on the order in which candidates are offered") {
    // Duplicated points give distance ties, so the id tie-break is exercised.
    val base = TestData.randomVs(30, 4, seed = 40)
    val vs = VecStore.fromRows((0 until 60).map(i => base.vector(i % 30)))
    val rnd = new scala.util.Random(41)
    for (u <- 0 until 10; alpha <- Seq(1.0f, 1.2f)) {
      val want = pruneFor(vs, u, 0 until 60, m = 8, alpha).toSeq
      for (ids <- Seq((0 until 60).reverse, rnd.shuffle((0 until 60).toVector)))
        assert(pruneFor(vs, u, ids, m = 8, alpha).toSeq == want, s"node $u alpha $alpha")
    }
  }

  test("exactRng edges are symmetric in the undirected sense of Definition 2.1") {
    // The pruning condition is symmetric in u and v, so (u,v) kept iff (v,u) kept.
    val vs = TestData.randomVs(25, 3, seed = 38)
    val g = ExactOracles.exactRng(vs, 0, 24)
    for (u <- 0 until 25; v <- g(u)) assert(g(v).contains(u))
  }

  test("prune output sorted ascending by (dist, id) and within cap (randomized)") {
    val rnd = new java.util.Random(39)
    for (_ <- 0 until 50) {
      val n = 5 + rnd.nextInt(36)
      val m = 1 + rnd.nextInt(10)
      val vs = TestData.randomVs(n, 4, rnd.nextLong())
      val kept = pruneFor(vs, 0, 0 until n, m)
      assert(kept.length <= m)
      assert(kept.sliding(2).forall {
        case Array(a, b) => a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
        case _ => true
      })
    }
  }
}
