package repro.core

import java.util.SplittableRandom
import repro.graph.{Candidate, SearchStats}

/** Multi-attribute RFANN (Section 4).
  *
  * The index is built on attribute A₁ (ranks = ids). A query carries a rank
  * range [L1, R1] on A₁ — handled by the dedicated graph — and a rank range
  * [L2, R2] on A₂, where `attr2Rank(i)` is object i's rank in A₂ order.
  * Strategies for the A₂ predicate during the dedicated-graph search:
  *
  *  - **Post-filtering** (p = 1): traverse every neighbor, admit only
  *    A₂-in-range objects into the result.
  *  - **In-filtering** (p = 0): traverse only A₂-in-range neighbors.
  *  - **Probabilistic** (iRangeGraph+): traverse an A₂-out-of-range neighbor
  *    with probability p = exp(-t), where t counts the consecutive
  *    out-of-range objects visited on the search path so far (reset whenever
  *    an in-range object is visited) — the paper's practical choice that
  *    interpolates between the two extremes.
  */
object MultiAttr {

  sealed trait Strategy
  case object PostFilter extends Strategy
  case object InFilter extends Strategy
  /** p = exp(-t); deterministic given the per-query seed. */
  final case class Probabilistic(seed: Long) extends Strategy

  def search(ir: IRangeGraph, attr2Rank: Array[Int],
             q: Array[Float], L1: Int, R1: Int, L2: Int, R2: Int,
             k: Int, beam: Int, strategy: Strategy,
             stats: SearchStats = null): Array[Candidate] = {
    ir.checkQuery(q, L1, R1, k)
    require(0 <= L2 && L2 <= R2 && R2 < ir.n, s"bad second-attribute range [$L2,$R2] for n=${ir.n}")
    require(attr2Rank.length == ir.n, s"second-attribute ranks for ${attr2Rank.length} objects, n=${ir.n}")
    def inRange2(i: Int): Boolean = { val a = attr2Rank(i); a >= L2 && a <= R2 }

    val visit: Int => Boolean = strategy match {
      case PostFilter => _ => true
      case InFilter =>
        val entries = IRangeGraph.entries(L1, R1)
        (i: Int) => inRange2(i) || entries.contains(i)
      case Probabilistic(seed) =>
        val rnd = new SplittableRandom(seed)
        var t = 0
        (i: Int) => {
          if (inRange2(i)) { t = 0; true }
          else {
            val p = math.exp(-t.toDouble)
            val go = rnd.nextDouble() < p
            if (go) t += 1
            go
          }
        }
    }

    ir.dedicatedSearch(q, L1, R1, k, beam, skipLayers = true, visit, inRange2, stats)
  }
}
