package repro.graph

/** The best `cap` (distance, id) pairs offered since `reset`, ascending by
  * (distance, id), on parallel primitive arrays, each with an expanded
  * flag — DiskANN's candidate list (Subramanya et al., NeurIPS 2019). The
  * one top-k structure of the repo: the beam and the admitted set of
  * [[BeamSearch]], and the exact scan of [[BruteForce.topK]].
  *
  * `cursor` is the index of the first unexpanded entry (`size` if none);
  * only the beam search reads the flags.
  */
private[graph] final class SortedList {
  private var ds = new Array[Float](0)
  private var ids = new Array[Int](0)
  private var expanded = new Array[Boolean](0)
  private var size = 0
  private var cursor = 0
  private var cap = 0

  /** Empties the list and bounds it to `capacity` (≥ 1) entries; the
    * arrays grow to the largest capacity asked for so far.
    */
  def reset(capacity: Int): Unit = {
    if (capacity > ds.length) {
      ds = new Array[Float](capacity)
      ids = new Array[Int](capacity)
      expanded = new Array[Boolean](capacity)
    }
    cap = capacity
    size = 0
    cursor = 0
  }

  /** Inserts an unexpanded (d, id) unless the list is full of better pairs;
    * an insert before the cursor moves the cursor back to it.
    */
  def insert(d: Float, id: Int): Unit =
    if (size < cap || SortedList.less(d, id, ds(size - 1), ids(size - 1))) {
      var lo = 0
      var hi = size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (SortedList.less(ds(mid), ids(mid), d, id)) lo = mid + 1 else hi = mid
      }
      val moved = (if (size < cap) size else size - 1) - lo
      System.arraycopy(ds, lo, ds, lo + 1, moved)
      System.arraycopy(ids, lo, ids, lo + 1, moved)
      System.arraycopy(expanded, lo, expanded, lo + 1, moved)
      ds(lo) = d
      ids(lo) = id
      expanded(lo) = false
      if (size < cap) size += 1
      if (lo < cursor) cursor = lo
    }

  /** Moves the cursor onto the first unexpanded entry; false if none. */
  def hasUnexpanded: Boolean = {
    while (cursor < size && expanded(cursor)) cursor += 1
    cursor < size
  }

  /** Marks the entry at the cursor expanded and returns its id. */
  def expandNext(): Int = {
    expanded(cursor) = true
    ids(cursor)
  }

  /** The first min(k, size) entries as candidates, best first. */
  def take(k: Int): Array[Candidate] = {
    val out = new Array[Candidate](math.max(0, math.min(k, size)))
    var i = 0
    while (i < out.length) {
      out(i) = Candidate(ids(i), ds(i))
      i += 1
    }
    out
  }
}

private[graph] object SortedList {

  /** Ascending (distance, id) — the order of `BruteForce.candidateOrdering`. */
  private def less(da: Float, ia: Int, db: Float, ib: Int): Boolean = {
    val c = java.lang.Float.compare(da, db)
    c < 0 || (c == 0 && ia < ib)
  }
}
