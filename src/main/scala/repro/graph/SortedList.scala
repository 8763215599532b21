package repro.graph

/** The best `cap` (distance, id) pairs offered since `reset`, ascending by
  * (distance, id), on parallel primitive arrays, each with an expanded
  * flag — DiskANN's candidate list (Subramanya et al., NeurIPS 2019). The
  * one candidate set of the repo and the only code that knows its order:
  * the beam and the admitted set of [[BeamSearch]], the exact scan and
  * merge of [[BruteForce]], and every builder's input to [[RngPrune.prune]].
  *
  * `cursor` is the index of the first unexpanded entry (`size` if none);
  * only the beam search reads the flags.
  */
private[repro] final class SortedList(capacity: Int = 1) {
  private var ds = new Array[Float](0)
  private var ids = new Array[Int](0)
  private var expanded = new Array[Boolean](0)
  private var len = 0
  private var cursor = 0
  private var cap = 0
  reset(capacity)

  /** Empties the list and bounds it to `capacity` entries (at least one:
    * `insert` reads the last slot); the arrays grow to the largest capacity
    * asked for so far.
    */
  def reset(capacity: Int): Unit = {
    cap = math.max(capacity, 1)
    if (cap > ds.length) {
      ds = new Array[Float](cap)
      ids = new Array[Int](cap)
      expanded = new Array[Boolean](cap)
    }
    len = 0
    cursor = 0
  }

  /** The number of entries, and the id and distance of the i-th best. */
  def size: Int = len
  def id(i: Int): Int = ids(i)
  def dist(i: Int): Float = ds(i)

  /** Inserts an unexpanded (d, id) unless the list is full of better pairs;
    * an insert before the cursor moves the cursor back to it.
    */
  def insert(d: Float, id: Int): Unit =
    if (len < cap || SortedList.less(d, id, ds(len - 1), ids(len - 1))) {
      val lo = rank(d, id)
      val moved = (if (len < cap) len else len - 1) - lo
      System.arraycopy(ds, lo, ds, lo + 1, moved)
      System.arraycopy(ids, lo, ids, lo + 1, moved)
      System.arraycopy(expanded, lo, expanded, lo + 1, moved)
      ds(lo) = d
      ids(lo) = id
      expanded(lo) = false
      if (len < cap) len += 1
      if (lo < cursor) cursor = lo
    }

  /** Whether the list holds the pair (d, id). */
  def contains(d: Float, id: Int): Boolean = {
    val i = rank(d, id)
    i < len && ids(i) == id && java.lang.Float.compare(ds(i), d) == 0
  }

  /** The index of the first entry not before (d, id). */
  private def rank(d: Float, id: Int): Int = {
    var lo = 0
    var hi = len
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (SortedList.less(ds(mid), ids(mid), d, id)) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Moves the cursor onto the first unexpanded entry; false if none. */
  def hasUnexpanded: Boolean = {
    while (cursor < len && expanded(cursor)) cursor += 1
    cursor < len
  }

  /** Marks the entry at the cursor expanded and returns its id. */
  def expandNext(): Int = {
    expanded(cursor) = true
    ids(cursor)
  }

  /** The first min(k, size) entries as candidates, best first. */
  def take(k: Int): Array[Candidate] = {
    val out = new Array[Candidate](math.max(0, math.min(k, len)))
    var i = 0
    while (i < out.length) {
      out(i) = Candidate(ids(i), ds(i))
      i += 1
    }
    out
  }
}

private[repro] object SortedList {

  /** The one candidate order of the repo: ascending distance by
    * `java.lang.Float.compare` (-0 < +0, NaN last), ties by ascending id.
    */
  def less(da: Float, ia: Int, db: Float, ib: Int): Boolean = {
    val c = java.lang.Float.compare(da, db)
    c < 0 || (c == 0 && ia < ib)
  }
}
