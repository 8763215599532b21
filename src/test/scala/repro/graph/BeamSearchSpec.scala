package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class BeamSearchSpec extends AnyFunSuite {

  /** Fully connected adjacency — beam search must then equal brute force. */
  private def completeNeighbors(n: Int): Int => Array[Int] =
    (u: Int) => (0 until n).filter(_ != u).toArray

  private val vs = TestData.randomVs(60, 6, seed = 41)
  private val queries = TestData.randomQueries(4, 6, seed = 42)

  for ((q, qi) <- queries.zipWithIndex) {
    test(s"on a complete graph, search equals exact top-k (query $qi)") {
      val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
        neighbors = completeNeighbors(60))
      assert(got.map(_.id).toSeq == BruteForce.topKIds(vs, q, 0, 59, 10).toSeq)
    }
  }

  test("results are sorted ascending by (dist, id)") {
    val q = queries(0)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 20, k = 20,
      neighbors = completeNeighbors(60))
    assert(got.sliding(2).forall {
      case Array(a, b) => a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
      case _ => true
    })
  }

  test("admit filter excludes nodes from results but not traversal") {
    val q = queries(1)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
      neighbors = completeNeighbors(60), admit = _ % 3 == 0)
    assert(got.nonEmpty)
    assert(got.forall(_.id % 3 == 0))
    assert(got.map(_.id).toSeq == BruteForce.topKIds(vs, q, 0, 59, 10, _ % 3 == 0).toSeq)
  }

  test("visit filter restricts traversal entirely") {
    // Path graph 0-1-2-...-n; forbidding node 5 makes everything beyond unreachable.
    val n = 20
    val path: Int => Array[Int] = u => Array(u - 1, u + 1).filter(v => v >= 0 && v < n)
    val q = queries(2)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = n, k = n,
      neighbors = path, visit = _ != 5)
    assert(got.map(_.id).forall(_ < 5))
  }

  test("negative id terminates a neighbor list early") {
    val adj: Int => Array[Int] = u => Array(1, -1, 2, 3) // 2, 3 must be ignored
    val q = queries(3)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = adj)
    assert(got.map(_.id).toSet == Set(0, 1))
  }

  test("stats count distance computations and expansions") {
    val stats = new SearchStats
    val q = queries(0)
    BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 10, k = 10,
      neighbors = completeNeighbors(60), stats = stats)
    assert(stats.distComputations > 0)
    assert(stats.nodesExpanded > 0)
    assert(stats.edgesScanned >= stats.distComputations - 1)
  }

  test("beam = 1 is plain greedy search: still finds a local result") {
    val q = queries(1)
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 1, k = 1,
      neighbors = completeNeighbors(60))
    // Complete graph: greedy from anywhere reaches the global NN.
    assert(got.head.id == BruteForce.topKIds(vs, q, 0, 59, 1).head)
  }

  test("larger beams never reduce recall on a fixed sparse graph") {
    val h = Hnsw.buildAll(vs, m = 6, efConstruction = 30)
    val q = queries(2)
    val exact = BruteForce.topKIds(vs, q, 0, 59, 10).toSet
    val recalls = Seq(2, 8, 32, 60).map { b =>
      h.search(q, 10, b).map(_.id).count(exact).toDouble / 10
    }
    assert(recalls.sliding(2).forall { case Seq(a, b) => b >= a - 1e-9; case _ => true })
  }

  test("empty entries yield empty results") {
    val got = BeamSearch.search(queries(0), i => vs.dist2(i, queries(0)), Seq.empty,
      beam = 10, k = 10, neighbors = completeNeighbors(60))
    assert(got.isEmpty)
  }

  test("entries rejected by visit yield empty results") {
    val got = BeamSearch.search(queries(0), i => vs.dist2(i, queries(0)), Seq(0),
      beam = 10, k = 10, neighbors = completeNeighbors(60), visit = _ => false)
    assert(got.isEmpty)
  }

  /** Sparse ring-with-chords graph over ids [0, n): every id reachable. */
  private def chordNeighbors(n: Int): Int => Array[Int] =
    (u: Int) => Array(1, 7, 97).flatMap(s => Array((u + s) % n, (u - s + n) % n))

  /** With beam >= n every reachable node is expanded, so the search is exact. */
  private def exhaustive(vs: VecStore, q: Array[Float]): Array[Candidate] =
    BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = vs.n, k = 10,
      neighbors = chordNeighbors(vs.n))

  test("equal distances come back in ascending id order, as brute force") {
    // Ids i, i + 10, i + 20, i + 30 share one vector.
    val base = TestData.randomVs(10, 6, seed = 43)
    val dup = new VecStore(6, 40, Array.tabulate(40 * 6)(j => base.data((j / 6 % 10) * 6 + j % 6)))
    for (q <- queries) {
      val got = BeamSearch.search(q, i => dup.dist2(i, q), Seq(17), beam = 40, k = 14,
        neighbors = completeNeighbors(40))
      assert(got.toSeq == BruteForce.topK(dup, q, 0, 39, 14).toSeq)
    }
  }

  test("concurrent searches on 4 threads return the sequential results") {
    val big = TestData.randomVs(800, 6, seed = 44)
    val qs = TestData.randomQueries(50, 6, seed = 45)
    val nbrs = chordNeighbors(800)
    def run(q: Array[Float]): Seq[Candidate] =
      BeamSearch.search(q, i => big.dist2(i, q), Seq(0, 400), beam = 16, k = 10,
        neighbors = nbrs).toSeq
    val expected = qs.map(run)
    val results = Array.fill(4)(new Array[Seq[Candidate]](qs.length * 20))
    val threads = Array.tabulate(4) { t =>
      new Thread(() => {
        for (i <- results(t).indices) results(t)(i) = run(qs((i + 13 * t) % qs.length))
      })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    for (t <- 0 until 4; i <- results(t).indices)
      assert(results(t)(i) == expected((i + 13 * t) % qs.length), s"thread $t search $i")
  }

  test("a search nested in another's visit closure leaves both correct") {
    val big = TestData.randomVs(300, 6, seed = 46)
    val q = queries(0)
    val inner = queries(1)
    val innerExpected = exhaustive(big, inner).toSeq
    var nested = 0
    val got = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
      neighbors = completeNeighbors(60),
      visit = _ => {
        assert(exhaustive(big, inner).toSeq == innerExpected)
        nested += 1
        true
      })
    assert(nested > 0)
    assert(got.map(_.id).toSeq == BruteForce.topKIds(vs, q, 0, 59, 10).toSeq)
  }

  test("a large search right after a small one grows the visited set and ignores stale marks") {
    val big = TestData.randomVs(5001, 6, seed = 47)
    val qs = TestData.randomQueries(3, 6, seed = 48)
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    // A fresh thread, so its pooled visited set starts small.
    val t = new Thread(() => {
      for (round <- 0 until 2; (q, qi) <- qs.zipWithIndex) {
        val small = BeamSearch.search(q, i => vs.dist2(i, q), Seq(0), beam = 60, k = 10,
          neighbors = completeNeighbors(60))
        if (small.map(_.id).toSeq != BruteForce.topKIds(vs, q, 0, 59, 10).toSeq)
          failures.add(s"small search, round $round, query $qi")
        if (exhaustive(big, q).toSeq != BruteForce.topK(big, q, 0, 5000, 10).toSeq)
          failures.add(s"large search, round $round, query $qi")
      }
    })
    t.start()
    t.join()
    assert(failures.isEmpty, failures.toString)
  }
}
