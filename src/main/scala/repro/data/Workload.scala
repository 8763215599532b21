package repro.data

import java.util.SplittableRandom

/** Query-range workloads (Section 5.1).
  *
  * A query has range fraction 2⁻ⁱ when its range covers n / 2ⁱ objects.
  * Fractions are grouped into large (i ∈ [0,3]), moderate (i ∈ [4,6]) and
  * small (i ∈ [7,9]); the mixed workload splits the queries into 10 subsets,
  * subset i getting fraction 2⁻ⁱ. Range locations are uniform at random.
  */
object Workload {

  final case class RangeQuery(qid: Int, L: Int, R: Int)

  /** One random range of length `len` over ranks [0, n). */
  private def randomRange(n: Int, len: Int, rnd: SplittableRandom): (Int, Int) = {
    val l = math.max(1, len)
    val start = rnd.nextInt(n - l + 1)
    (start, start + l - 1)
  }

  /** Fixed-fraction workload: every query gets a fresh random range of
    * length n / 2^fracExp.
    */
  def fixed(n: Int, nQueries: Int, fracExp: Int, seed: Long = 7L): Array[RangeQuery] = {
    require(fracExp >= 0 && (n >> fracExp) >= 1, s"fraction 2^-$fracExp empty at n=$n")
    val rnd = new SplittableRandom(seed)
    Array.tabulate(nQueries) { qid =>
      val (l, r) = randomRange(n, n >> fracExp, rnd)
      RangeQuery(qid, l, r)
    }
  }

  /** Query subsets of the mixed workloads; subset i gets fraction 2⁻ⁱ. */
  private val Groups = 10

  /** Mixed workload: subset i of 10 gets fraction 2⁻ⁱ (i ∈ [0, 9]). */
  def mixed(n: Int, nQueries: Int, seed: Long = 11L): Array[RangeQuery] = {
    val rnd = new SplittableRandom(seed)
    Array.tabulate(nQueries) { qid =>
      val exp = qid % Groups
      val (l, r) = randomRange(n, math.max(1, n >> exp), rnd)
      RangeQuery(qid, l, r)
    }
  }

  /** Shared-range mixed workload for the Oracle-HNSW study (Section 5.2.4):
    * 10 distinct ranges, one per query subset, so only 10 oracle indexes
    * must be materialized. Returns (ranges, perQueryRange).
    */
  def sharedMixed(n: Int, nQueries: Int): (Array[(Int, Int)], Array[RangeQuery]) = {
    val rnd = new SplittableRandom(13L)
    val ranges = Array.tabulate(Groups)(i => randomRange(n, math.max(1, n >> i), rnd))
    val qs = Array.tabulate(nQueries) { qid =>
      val (l, r) = ranges(qid % Groups)
      RangeQuery(qid, l, r)
    }
    (ranges, qs)
  }

  final case class MultiRangeQuery(qid: Int, L1: Int, R1: Int, L2: Int, R2: Int)

  /** Multi-attribute workload (Section 5.2.5): each attribute independently
    * gets a random range with expected fraction 2⁻ᵉˣᵖ, so the conjunction
    * has moderate selectivity (~2⁻²ᵉˣᵖ of the data).
    */
  def multiAttr(n: Int, nQueries: Int, exp: Int = 2, seed: Long = 17L): Array[MultiRangeQuery] = {
    val rnd = new SplittableRandom(seed)
    Array.tabulate(nQueries) { qid =>
      val (l1, r1) = randomRange(n, math.max(1, n >> exp), rnd)
      val (l2, r2) = randomRange(n, math.max(1, n >> exp), rnd)
      MultiRangeQuery(qid, l1, r1, l2, r2)
    }
  }
}
