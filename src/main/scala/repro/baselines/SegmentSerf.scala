package repro.baselines

import repro.graph.{Candidate, IncrementalGraph, SearchStats, VecStore}

/** "2DSegmentGraph" baseline — our reproduction of SeRF (Zuo et al. [89])
  * with MaxLeap-style compression.
  *
  * 1-D core (exact, SeRF's key idea): insert points in ascending attribute
  * order into an incremental RNG graph recording each directed edge's
  * lifespan [birth, death). The graph "as of step t" is exactly the index
  * over prefix [0, t), so ONE annotated graph encodes all n half-bounded
  * query ranges losslessly.
  *
  * 2-D compression (lossy, the MaxLeap analog): arbitrary left endpoints
  * would need n such graphs; MaxLeap keeps only a few. We keep a coarse grid
  * of `grid` left endpoints L₀ < L₁ < …, each with a lifespan graph over the
  * suffix [Lⱼ, n). A query [L, R] uses the graph of the largest Lⱼ ≤ L at
  * time R+1−Lⱼ: the alive node set is [Lⱼ, R] ⊇ [L, R], searched with
  * in-graph traversal and admission restricted to [L, R]. When the query
  * range is much smaller than its covering suffix prefix (small/mixed
  * fractions), most visited nodes are out-of-range and recall collapses —
  * the paper's reported failure mode of 2DSegmentGraph; half-bounded and
  * large ranges stay near-exact. grid = 4 mirrors MaxLeap's aggressive
  * compression.
  */
final class SegmentSerf(
    val vs: VecStore,
    val grid: Int,
    m: Int,
    efConstruction: Int,
) {
  /** Left endpoints of the compressed set; lefts(0) == 0. */
  val lefts: Array[Int] = Array.tabulate(grid)(j => (vs.n.toLong * j / grid).toInt)

  val graphs: Array[IncrementalGraph] = lefts.map { l =>
    IncrementalGraph.build(vs, l until vs.n, m, efConstruction)
  }

  /** `extraAdmit` carries the second-attribute predicate of the paper's
    * multi-attribute extension of 2DSegmentGraph (Post-filtering on A₂).
    */
  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int,
             stats: SearchStats = null,
             extraAdmit: Int => Boolean = _ => true): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    // Largest recorded left endpoint <= L.
    var j = lefts.length - 1
    while (lefts(j) > L) j -= 1
    val base = lefts(j)
    val t = R + 1 - base // number of inserted points alive at query time
    val entry = base // first inserted point of this graph — always alive
    graphs(j).search(q, Seq(entry), k, beam, t,
      admit = i => i >= L && i <= R && extraAdmit(i), stats = stats)
  }

  /** Compressed size: stored edges with their lifespan annotations, 12
    * bytes each (id, birth, death). The whole point of SeRF is that this is
    * far below O(n·m) per distinct range.
    */
  def sizeBytes: Long = graphs.map(_.storedEdges * 12L).sum
}
