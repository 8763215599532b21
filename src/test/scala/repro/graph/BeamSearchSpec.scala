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
    val adj: Int => Array[Int] = _ => Array(1, -1, 2, 3) // 2, 3 must be ignored
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

  /** The kernel before the sorted beam list, kept as the oracle: a min-heap
    * frontier of unexpanded nodes, a max-heap of the best `beam` visited
    * nodes and a max-heap of the best max(k, beam) admitted nodes; stop when
    * the popped frontier node is worse than a full beam's worst member.
    */
  private def threeHeapSearch(dist: Int => Float, entries: Seq[Int], beam: Int, k: Int,
                              neighbors: Int => Array[Int], visit: Int => Boolean,
                              admit: Int => Boolean, stats: SearchStats): Array[Candidate] = {
    def less(da: Float, ia: Int, db: Float, ib: Int): Boolean = {
      val c = java.lang.Float.compare(da, db)
      c < 0 || (c == 0 && ia < ib)
    }
    final class Heap(maxOnTop: Boolean) {
      private var ds = new Array[Float](64)
      private var ids = new Array[Int](64)
      var size = 0
      def topDist: Float = ds(0)
      def topId: Int = ids(0)
      private def above(da: Float, ia: Int, db: Float, ib: Int): Boolean =
        if (maxOnTop) less(db, ib, da, ia) else less(da, ia, db, ib)
      def push(d: Float, id: Int): Unit = {
        if (size == ds.length) {
          ds = java.util.Arrays.copyOf(ds, 2 * size)
          ids = java.util.Arrays.copyOf(ids, 2 * size)
        }
        var i = size
        size += 1
        var up = true
        while (up && i > 0) {
          val p = (i - 1) >>> 1
          if (above(d, id, ds(p), ids(p))) { ds(i) = ds(p); ids(i) = ids(p); i = p }
          else up = false
        }
        ds(i) = d
        ids(i) = id
      }
      def pop(): Unit = {
        size -= 1
        if (size > 0) replaceTop(ds(size), ids(size))
      }
      def replaceTop(d: Float, id: Int): Unit = {
        var i = 0
        var down = true
        while (down && 2 * i + 1 < size) {
          var c = 2 * i + 1
          if (c + 1 < size && above(ds(c + 1), ids(c + 1), ds(c), ids(c))) c += 1
          if (above(ds(c), ids(c), d, id)) { ds(i) = ds(c); ids(i) = ids(c); i = c }
          else down = false
        }
        ds(i) = d
        ids(i) = id
      }
    }
    val frontier = new Heap(maxOnTop = false)
    val beamHeap = new Heap(maxOnTop = true)
    val admitted = new Heap(maxOnTop = true)
    val visited = scala.collection.mutable.HashSet.empty[Int]
    val admitCap = math.max(k, beam)
    def offer(id: Int): Unit = {
      val d = dist(id)
      if (stats != null) stats.distComputations += 1
      if (beamHeap.size < beam) {
        frontier.push(d, id)
        beamHeap.push(d, id)
      } else if (less(d, id, beamHeap.topDist, beamHeap.topId)) {
        frontier.push(d, id)
        beamHeap.replaceTop(d, id)
      }
      if (admit(id)) {
        if (admitted.size < admitCap) admitted.push(d, id)
        else if (less(d, id, admitted.topDist, admitted.topId)) admitted.replaceTop(d, id)
      }
    }
    for (e <- entries) if (visit(e) && visited.add(e)) offer(e)
    var done = false
    while (!done && frontier.size > 0) {
      val cd = frontier.topDist
      val cur = frontier.topId
      frontier.pop()
      if (beamHeap.size >= beam && less(beamHeap.topDist, beamHeap.topId, cd, cur)) done = true
      else {
        if (stats != null) stats.nodesExpanded += 1
        val nbrs = neighbors(cur)
        var j = 0
        while (j < nbrs.length && nbrs(j) >= 0) {
          val v = nbrs(j)
          if (stats != null) stats.edgesScanned += 1
          if (!visited.contains(v) && visit(v)) {
            visited.add(v)
            offer(v)
          }
          j += 1
        }
      }
    }
    val out = new Array[Candidate](math.max(0, math.min(k, admitted.size)))
    while (admitted.size > out.length) admitted.pop()
    var i = out.length - 1
    while (i >= 0) {
      out(i) = Candidate(admitted.topId, admitted.topDist)
      admitted.pop()
      i -= 1
    }
    out
  }

  /** Random directed graph on [0, n): each list holds 1..deg random ids,
    * repeats and self-loops allowed, sometimes -1-terminated early.
    */
  private def randomGraph(n: Int, deg: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new java.util.Random(seed)
    Array.fill(n) {
      val a = Array.fill(1 + rnd.nextInt(deg))(rnd.nextInt(n))
      if (rnd.nextInt(4) == 0) a(rnd.nextInt(a.length)) = -1
      a
    }
  }

  /** MultiAttr's stateful p = exp(-t) visit rule over an `ok` predicate. */
  private def expVisit(ok: Int => Boolean, seed: Long): Int => Boolean = {
    val rnd = new java.util.SplittableRandom(seed)
    var t = 0
    (i: Int) => {
      if (ok(i)) { t = 0; true }
      else {
        val go = rnd.nextDouble() < math.exp(-t.toDouble)
        if (go) t += 1
        go
      }
    }
  }

  private val filters: Seq[(String, Long => (Int => Boolean, Int => Boolean))] = Seq(
    "no filter" -> (_ => (_ => true, BeamSearch.AdmitAll)),
    "admit filter" -> (_ => (_ => true, (i: Int) => i % 3 != 1)),
    "visit filter" -> (_ => ((i: Int) => i % 5 != 2, BeamSearch.AdmitAll)),
    "p = exp(-t) visit and admit filter" -> (seed => (expVisit(_ % 2 == 0, seed), (i: Int) => i % 2 == 0)),
  )

  for ((name, filter) <- filters; (beam, k) <- Seq((1, 1), (1, 3), (8, 0), (8, 3), (8, 8), (8, 20), (20, 10), (20, 20), (20, 35))) {
    test(s"equals the three-heap kernel in ids, distances and stats: $name, beam $beam, k $k") {
      // Half the vectors are duplicates of the other half, so distances tie.
      val n = 300
      val base = TestData.randomVs(n / 2, 4, seed = 50)
      val data = new VecStore(4, n, Array.tabulate(n * 4)(j => base.data(j % (n / 2 * 4))))
      val qs = TestData.randomQueries(12, 4, seed = 51)
      for ((q, qi) <- qs.zipWithIndex) {
        val adj = randomGraph(n, 10, seed = 52 + qi)
        val rnd = new java.util.Random(53 + qi)
        val es = Seq.fill(2 + rnd.nextInt(4))(rnd.nextInt(n))
        val entries = es :+ es.head // a duplicate entry
        val (visitA, admitA) = filter(qi)
        val (visitB, admitB) = filter(qi)
        val statsA = new SearchStats
        val statsB = new SearchStats
        val got = BeamSearch.search(q, i => data.dist2(i, q), entries, beam, k, u => adj(u),
          visit = visitA, admit = admitA, stats = statsA)
        val want = threeHeapSearch(i => data.dist2(i, q), entries, beam, k, u => adj(u),
          visitB, admitB, statsB)
        assert(got.toSeq == want.toSeq, s"query $qi")
        assert((statsA.distComputations, statsA.nodesExpanded, statsA.edgesScanned) ==
          (statsB.distComputations, statsB.nodesExpanded, statsB.edgesScanned), s"query $qi")
      }
    }
  }

  test("the default admit gives the same result and stats as an explicit _ => true") {
    val adj = randomGraph(400, 12, seed = 54)
    val big = TestData.randomVs(400, 6, seed = 55)
    for (q <- TestData.randomQueries(20, 6, seed = 56); (beam, k) <- Seq((10, 10), (10, 4), (4, 10))) {
      val statsA = new SearchStats
      val statsB = new SearchStats
      val a = BeamSearch.search(q, i => big.dist2(i, q), Seq(0, 200), beam, k, u => adj(u), stats = statsA)
      val b = BeamSearch.search(q, i => big.dist2(i, q), Seq(0, 200), beam, k, u => adj(u),
        admit = _ => true, stats = statsB)
      assert(a.toSeq == b.toSeq)
      assert((statsA.distComputations, statsA.nodesExpanded, statsA.edgesScanned) ==
        (statsB.distComputations, statsB.nodesExpanded, statsB.edgesScanned))
    }
  }
}
