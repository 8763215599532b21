package perfbench

import java.util.SplittableRandom
import repro.core.{EdgeSelection, ElementalGraphs, IRangeGraph}
import repro.graph.{BeamSearch, Candidate, SearchStats, VecStore}

/** Traced search, recomposed from the public parts of `IRangeGraph.search`
  * and `MultiAttr.search` (Probabilistic strategy): `BeamSearch.search` over
  * `IRangeGraph.entries`, with `VecStore.dist2` as the distance and
  * `EdgeSelection.select` as the neighbor source. Each closure is wrapped
  * with a timer and counters; everything else in the traced interval is
  * beam-search bookkeeping. The harness checks that the recomposed search
  * returns exactly the ids of the real one, so the trace measures the real
  * code path.
  *
  * Counters accumulate over every call to [[search]].
  */
final class QueryTrace(g: ElementalGraphs, vs: VecStore, attr2Rank: Array[Int],
                       multiAttr: Boolean, k: Int, beam: Int) {
  var queries = 0L
  var totalNs = 0L
  var distNs = 0L
  var distCalls = 0L
  var selNs = 0L
  var selCalls = 0L
  var selEdges = 0L
  var noSkipNs = 0L
  var noSkipCalls = 0L
  var visitCalls = 0L
  var visitAccepted = 0L
  var admitCalls = 0L
  var admitAccepted = 0L
  val stats = new SearchStats

  private val scratch = new Array[Int](g.m + 1)
  private val replayOut = new Array[Int](g.m + 1)
  private var expanded = new Array[Int](1024)
  private var nExpanded = 0

  /** MultiAttr's p = exp(-t) visit rule, seeded per query as it is there. */
  private def probabilistic(inRange2: Int => Boolean, seed: Long): Int => Boolean = {
    val rnd = new SplittableRandom(seed)
    var t = 0
    (i: Int) => {
      if (inRange2(i)) { t = 0; true }
      else {
        val go = rnd.nextDouble() < math.exp(-t.toDouble)
        if (go) t += 1
        go
      }
    }
  }

  def search(q: Query, probSeed: Long): Array[Candidate] = {
    val v = q.vec
    val L = q.l1
    val R = q.r1
    nExpanded = 0
    val dist = (i: Int) => {
      val t0 = System.nanoTime()
      val d = vs.dist2(i, v)
      distNs += System.nanoTime() - t0
      distCalls += 1
      d
    }
    val neighbors = (u: Int) => {
      val t0 = System.nanoTime()
      val c = EdgeSelection.select(g, u, L, R, scratch)
      selNs += System.nanoTime() - t0
      selCalls += 1
      selEdges += c
      if (nExpanded == expanded.length) expanded = java.util.Arrays.copyOf(expanded, 2 * nExpanded)
      expanded(nExpanded) = u
      nExpanded += 1
      scratch
    }
    val inRange2 = (i: Int) => { val a = attr2Rank(i); a >= q.l2 && a <= q.r2 }
    val visitRule: Int => Boolean =
      if (multiAttr) probabilistic(inRange2, probSeed + q.qid) else _ => true
    val admitRule: Int => Boolean = if (multiAttr) inRange2 else _ => true
    val visit = (i: Int) => {
      visitCalls += 1
      val ok = visitRule(i)
      if (ok) visitAccepted += 1
      ok
    }
    val admit = (i: Int) => {
      admitCalls += 1
      val ok = admitRule(i)
      if (ok) admitAccepted += 1
      ok
    }

    val t0 = System.nanoTime()
    val res = BeamSearch.search(v, dist, IRangeGraph.entries(L, R), beam, k,
      neighbors, visit, admit, stats)
    totalNs += System.nanoTime() - t0
    queries += 1

    // Replay the same edge selections through the no-skip variant.
    var i = 0
    while (i < nExpanded) {
      val t1 = System.nanoTime()
      EdgeSelection.selectNoSkip(g, expanded(i), L, R, replayOut)
      noSkipNs += System.nanoTime() - t1
      i += 1
    }
    noSkipCalls += nExpanded
    res
  }
}
