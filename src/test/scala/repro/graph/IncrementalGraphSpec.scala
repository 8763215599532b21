package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.baselines.{FilteredVamana, SegmentSerf}
import repro.data.GroundTruth

class IncrementalGraphSpec extends AnyFunSuite {

  private val vs = TestData.clusteredVs(400, 10, clusters = 6, seed = 61)
  private val queries = TestData.nearQueries(vs, 20, seed = 62)

  test("final-graph search reaches >= 0.9 recall at high ef") {
    val g = IncrementalGraph.build(vs, 0 until 400, m = 12, efConstruction = 80)
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, 399, 10))
    val got = queries.map(q => g.search(q, Seq(g.entry), 10, 150).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.9)
  }

  test("live degrees are bounded by m after every insertion") {
    val g = new IncrementalGraph(vs, m = 8, efConstruction = 40, alpha = 1.0f)
    for (u <- 0 until 200) {
      g.insert(u)
      // A new node links to at most m; a neighbor over m re-prunes to m.
      for (v <- 0 to u) assert(g.neighbors(v).length <= 8, s"degree of $v after inserting $u")
    }
  }

  test("alpha=1.2 (Vamana RobustPrune) keeps a denser graph than alpha=1.0") {
    // Larger alpha makes the prune condition alpha*d(s,c) < d(u,c) harder to
    // satisfy, so fewer candidates are eliminated (DiskANN's robustness).
    val g1 = IncrementalGraph.build(vs, 0 until 300, m = 10, efConstruction = 50, alpha = 1.0f)
    val g2 = IncrementalGraph.build(vs, 0 until 300, m = 10, efConstruction = 50, alpha = 1.2f)
    val live1 = (0 until 300).map(g1.neighbors(_).length).sum
    val live2 = (0 until 300).map(g2.neighbors(_).length).sum
    assert(live2 >= live1 * 0.9, s"alpha=1.2 gave $live2 vs $live1 live edges")
  }

  // --- lifespan (segment graph) behaviour --------------------------------

  test("graph as-of final step equals the live graph") {
    val g = IncrementalGraph.build(vs, 0 until 250, m = 8, efConstruction = 40)
    for (u <- 0 until 250)
      assert(g.neighborsAsOf(u, 250).sorted.toSeq == g.neighbors(u).sorted.toSeq)
  }

  test("graph as-of step t contains only the first t inserted points") {
    val g = IncrementalGraph.build(vs, 0 until 250, m = 8, efConstruction = 40)
    for (t <- Seq(10, 50, 120, 250); u <- 0 until t)
      assert(g.neighborsAsOf(u, t).forall(_ < t),
        s"edge of $u as of $t points beyond the prefix")
  }

  test("replayed prefix graph equals a graph built on just the prefix") {
    // SeRF's core invariant: the lifespan-annotated graph replayed at step t
    // IS the incremental graph after t insertions.
    val full = IncrementalGraph.build(vs, 0 until 200, m = 8, efConstruction = 40)
    for (t <- Seq(30, 100, 170)) {
      val prefix = IncrementalGraph.build(vs, 0 until t, m = 8, efConstruction = 40)
      for (u <- 0 until t)
        assert(full.neighborsAsOf(u, t).sorted.toSeq == prefix.neighbors(u).sorted.toSeq,
          s"node $u at step $t")
    }
  }

  test("searchAsOf on a prefix reaches >= 0.9 recall against that prefix") {
    // Searching as of step t is `search` with its `t` argument.
    val g = IncrementalGraph.build(vs, 0 until 400, m = 12, efConstruction = 80)
    val t = 200
    val gt = queries.map(q => BruteForce.topKIds(vs, q, 0, t - 1, 10))
    val got = queries.map(q => g.search(q, Seq(0), 10, 150, t).map(_.id))
    assert(GroundTruth.meanRecall(gt, got) >= 0.9)
  }

  test("sizeBytes accounts 12 bytes per lifespan edge, 4 otherwise") {
    // The baselines own the byte accounting of their graphs: SeRF stores
    // every edge ever made with its lifespan, the Vamana graphs only the
    // live neighbor ids.
    val serf = new SegmentSerf(vs, grid = 1, m = 8, efConstruction = 30)
    val fv = new FilteredVamana(vs, buckets = 1, m = 8, efConstruction = 30)
    val g = serf.graphs(0)
    assert(serf.sizeBytes == g.storedEdges * 12)
    assert(fv.sizeBytes == fv.graph.liveEdges * 4)
    assert(g.storedEdges >= g.liveEdges) // dead edges are retained
  }

  test("insertion order is recorded") {
    val order = Seq(5, 3, 9, 0, 7)
    val g = IncrementalGraph.build(vs, order, m = 4, efConstruction = 10)
    assert(g.inserted == order)
    assert(g.entry == 5)
    assert(g.step == 5)
  }
}
