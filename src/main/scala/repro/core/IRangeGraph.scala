package repro.core

import repro.graph.{BeamSearch, Candidate, SearchStats, VecStore}

/** The iRangeGraph index (Section 3): materialized elemental graphs plus
  * greedy beam search on the range-dedicated graph improvised per query via
  * [[EdgeSelection]]. Edges of a node are constructed only when the search
  * is about to visit its neighbors, exactly as in Section 3.3.2.
  */
final class IRangeGraph(val vs: VecStore, val graphs: ElementalGraphs) {
  require(vs.n == graphs.n)

  def n: Int = graphs.n
  def m: Int = graphs.m

  /** RFANN search over ranks [L, R]: top-k in-range approximate NNs of q.
    *
    * @param skipLayers true = Algorithm 1 (iRangeGraph); false = the
    *                   no-skip ablation (iRangeGraph⁻).
    */
  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             skipLayers: Boolean = true,
             stats: SearchStats = null): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    dedicatedSearch(q, L, R, k, beam, skipLayers, _ => true, BeamSearch.AdmitAll, stats)
  }

  /** Beam search on the dedicated graph of [L, R] from [[IRangeGraph.entries]],
    * with the caller's `visit` and `admit` filters (see [[BeamSearch]]);
    * the caller has checked the query.
    */
  private[core] def dedicatedSearch(q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
                                    skipLayers: Boolean, visit: Int => Boolean,
                                    admit: Int => Boolean, stats: SearchStats): Array[Candidate] = {
    // Scratch adjacency reused across expansions (-1-terminated).
    val scratch = new Array[Int](m + 1)
    BeamSearch.search(
      q, (i: Int) => vs.dist2(i, q),
      entries = IRangeGraph.entries(L, R),
      beam = beam, k = k,
      neighbors = (u: Int) => { val _ = EdgeSelection.select(graphs, u, L, R, scratch, skipLayers); scratch },
      visit = visit,
      admit = admit,
      stats = stats,
    )
  }

  /** Index bytes (elemental graph edges only; vectors accounted separately,
    * as the paper's Table 2 does by also listing the raw-vector size).
    */
  def sizeBytes: Long = graphs.sizeBytes
}

object IRangeGraph {

  /** Entry points for the dedicated-graph search: the range midpoint plus
    * quartile-spread ranks. The paper leaves entry selection open; a
    * constant number of spread entries costs O(1) extra distance
    * computations and keeps tiny ranges reachable even when the improvised
    * graph splits across a high segment-tree boundary (almost no in-range
    * cross-boundary edges survive there for very short ranges).
    */
  def entries(L: Int, R: Int): Seq[Int] = {
    val len = R - L
    Seq(L + len / 2, L, R, L + len / 4, L + 3 * len / 4).distinct
  }
}
