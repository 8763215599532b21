package repro.baselines

import repro.graph.{Candidate, Hnsw, VecStore}

/** Oracle-HNSW (Section 5.2.4): an HNSW explicitly materialized for each
  * query range of the workload — the impractical ideal (materializing all
  * possible ranges is O(n³m)) against which iRangeGraph's gap is measured.
  * Only the given ranges are indexed, which is why the oracle study uses the
  * shared-range mixed workload.
  */
final class OracleHnsw(
    val vs: VecStore,
    val ranges: Array[(Int, Int)],
    m: Int,
    efConstruction: Int,
) {
  val indexes: Map[(Int, Int), Hnsw] =
    ranges.distinct.map { case (l, r) => (l, r) -> Hnsw.build(vs, l, r, m, efConstruction) }.toMap

  def search(q: Array[Float], L: Int, R: Int, k: Int, beam: Int): Array[Candidate] = {
    vs.checkQuery(q, L, R, k)
    val h = indexes.getOrElse((L, R),
      throw new IllegalArgumentException(s"no oracle index for [$L,$R]"))
    h.search(q, k, beam)
  }

  def sizeBytes: Long = indexes.valuesIterator.map(_.sizeBytes).sum
}
