package repro.graph

/** A set of dense non-negative ids that empties in O(1): id i is in the set
  * iff `stamp(i) == epoch`, and [[clear]] starts a new epoch. The array grows
  * on demand (keeping its stamps, all older than the current epoch), and an
  * epoch that wraps back to 0 — the stamp of a fresh slot — zeroes it once.
  * This is hnswlib's visited-list idiom; the beam search's visited set and
  * Algorithm 1's per-call dedup both use it, one instance per thread.
  */
final class EpochMarks {
  private var stamp = new Array[Int](0)
  private var epoch = 1

  /** Empties the set. */
  def clear(): Unit = {
    epoch += 1
    if (epoch == 0) { java.util.Arrays.fill(stamp, 0); epoch = 1 }
  }

  def contains(id: Int): Boolean = id < stamp.length && stamp(id) == epoch

  /** Adds `id`; false if it was already in the set. */
  def add(id: Int): Boolean = {
    if (id >= stamp.length)
      stamp = java.util.Arrays.copyOf(stamp, math.max(id + 1, 2 * stamp.length))
    if (stamp(id) == epoch) false
    else { stamp(id) = epoch; true }
  }
}
