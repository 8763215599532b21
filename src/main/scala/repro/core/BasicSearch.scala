package repro.core

import repro.graph.{BeamSearch, BruteForce, Candidate, FlatAdjacency, SearchStats, VecStore}

/** Ablation baseline (Section 5.2.2): the classical segment-tree way to
  * answer a range query — decompose [L, R] into its O(log n) canonical
  * disjoint segments, run an independent ANN search on each segment's
  * elemental graph, and merge the per-segment top-k lists. Every node in a
  * canonical segment is in-range, so no filtering is needed; the cost is
  * paying the beam-search overhead O(log n) times per query.
  */
object BasicSearch {

  def search(vs: VecStore, graphs: ElementalGraphs,
             q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             stats: SearchStats = null): Array[Candidate] = {
    val m = graphs.m
    val pieces = SegmentTree.decompose(graphs.n, L, R).map { case (lay, l, r) =>
      if (l == r) {
        if (stats != null) stats.distComputations += 1
        Array(Candidate(l, vs.dist2(l, q)))
      } else {
        val adj = graphs.layers(lay)
        val scratch = new Array[Int](m)
        BeamSearch.search(
          q, (i: Int) => vs.dist2(i, q),
          entries = Seq(SegmentTree.mid(l, r), l, r).distinct,
          beam = beam, k = k,
          neighbors = (u: Int) => FlatAdjacency.copy(adj, m, u, scratch),
          stats = stats,
        )
      }
    }
    BruteForce.mergeTopK(pieces, k)
  }
}
