package repro.graph

/** The adjacency layout of `Hnsw` and of the elemental-graph builders'
  * global-id working layers: node i's links occupy slots
  * `[i*cap, (i+1)*cap)` of a flat `Array[Int]`, neighbor ids first, then -1
  * padding up to the cap. Ids are dense ranks, so a node is found by
  * arithmetic, and a search reads a node's links by copying its slots into
  * a caller-owned scratch buffer that `BeamSearch` stops reading at the first -1.
  */
object FlatAdjacency {

  /** Number of links of node i (its slots before the first -1). */
  def degree(a: Array[Int], cap: Int, i: Int): Int = {
    val base = i * cap
    var d = 0
    while (d < cap && a(base + d) >= 0) d += 1
    d
  }

  /** Node i's links as a fresh exact-size array. */
  def neighbors(a: Array[Int], cap: Int, i: Int): Array[Int] =
    java.util.Arrays.copyOfRange(a, i * cap, i * cap + degree(a, cap, i))

  /** Set node i's links to `kept` (at most `cap` ids), -1-padded. */
  def write(a: Array[Int], cap: Int, i: Int, kept: Array[Int]): Unit = {
    val base = i * cap
    var s = 0
    while (s < cap) {
      a(base + s) = if (s < kept.length) kept(s) else -1
      s += 1
    }
  }

  /** Append v to node i's links; false (and nothing written) if i is full. */
  def append(a: Array[Int], cap: Int, i: Int, v: Int): Boolean = {
    val d = degree(a, cap, i)
    if (d < cap) a(i * cap + d) = v
    d < cap
  }

  /** Copy node i's `cap` slots into `out` (length >= cap) and return it. */
  def copy(a: Array[Int], cap: Int, i: Int, out: Array[Int]): Array[Int] = {
    System.arraycopy(a, i * cap, out, 0, cap)
    out
  }
}
