package repro.graph

/** Flat column-major-free storage for `n` vectors of dimension `dim`.
  *
  * All graph code in this repo identifies a data object by its integer id
  * `0 <= i < n`, which (per the paper's rank mapping, Section 2.2) is also its
  * rank in attribute order. Distances are squared Euclidean — monotone with
  * Euclidean distance, so nearest-neighbor orderings and recall are
  * unaffected while the per-distance cost drops by a sqrt.
  */
final class VecStore(val dim: Int, val n: Int, val data: Array[Float]) extends Serializable {
  require(data.length == dim.toLong * n, s"data length ${data.length} != $dim * $n")

  /** Copy of vector `i` (allocates; use only off the hot path). */
  def vector(i: Int): Array[Float] = {
    val out = new Array[Float](dim)
    System.arraycopy(data, i * dim, out, 0, dim)
    out
  }

  /** Squared L2 distance between stored vector `i` and query `q`. */
  def dist2(i: Int, q: Array[Float]): Float = {
    var s = 0.0f
    var j = 0
    val base = i * dim
    while (j < dim) {
      val d = data(base + j) - q(j)
      s += d * d
      j += 1
    }
    s
  }

  /** Squared L2 distance between stored vectors `i` and `j`. */
  def dist2(i: Int, j: Int): Float = {
    var s = 0.0f
    var t = 0
    val bi = i * dim
    val bj = j * dim
    while (t < dim) {
      val d = data(bi + t) - data(bj + t)
      s += d * d
      t += 1
    }
    s
  }

  /** The one check of a range query, made first by every public search:
    * rejects a query that would otherwise throw inside `dist2`, silently use
    * a prefix of `q`, or (with a NaN or infinite value, which makes every
    * distance NaN or infinite) return in-range ids ranked by id; and an empty
    * or out-of-bounds range [L, R] or k < 1.
    */
  def checkQuery(q: Array[Float], L: Int, R: Int, k: Int): Unit = {
    require(q.length == dim, s"query dimension ${q.length} != index dimension $dim")
    var i = 0
    while (i < q.length && java.lang.Float.isFinite(q(i))) i += 1
    require(i == q.length, s"query value q($i) = ${q(i)} is not finite")
    require(0 <= L && L <= R && R < n, s"bad range [$L,$R] for n=$n")
    require(k >= 1, s"k must be >= 1, got $k")
  }

  /** New store over ids [from, until) with ids remapped to 0-based. */
  def slice(from: Int, until: Int): VecStore = {
    require(0 <= from && from <= until && until <= n, s"bad slice [$from,$until) of $n")
    val m = until - from
    val out = new Array[Float](m * dim)
    System.arraycopy(data, from * dim, out, 0, m * dim)
    new VecStore(dim, m, out)
  }

  /** Raw bytes held by the vectors (for memory-footprint accounting). */
  def sizeBytes: Long = data.length.toLong * 4L
}

object VecStore {

  /** Build from per-row vectors (each must have identical length). */
  def fromRows(rows: IndexedSeq[Array[Float]]): VecStore = {
    require(rows.nonEmpty, "empty VecStore")
    val dim = rows.head.length
    val data = new Array[Float](rows.length * dim)
    var i = 0
    while (i < rows.length) {
      require(rows(i).length == dim, s"row $i has dim ${rows(i).length} != $dim")
      System.arraycopy(rows(i), 0, data, i * dim, dim)
      i += 1
    }
    new VecStore(dim, rows.length, data)
  }
}
