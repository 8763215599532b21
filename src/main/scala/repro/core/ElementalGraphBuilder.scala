package repro.core

import java.util.stream.IntStream
import repro.graph.{BeamSearch, RngPrune, SortedList, VecStore}

/** Bottom-up materialization of all elemental graphs (Section 3.2.2).
  *
  * For a segment [l, r] whose children graphs are already built, the
  * candidates for a node u in child [l, mid] are
  *
  *  1. u's neighbors in the child's elemental graph — any candidate from the
  *     containing child that those neighbors pruned would also be pruned in
  *     [l, r] (superset pruning argument), so copying them is sufficient; and
  *  2. approximate nearest neighbors of u searched in the *sibling* child's
  *     elemental graph (beam search with beam = EF), since nothing is known
  *     about pruning there; a sibling of at most EF members is taken whole.
  *
  * The union is then RNG-pruned (α = 1, the paper's rule) and capped at m.
  * Segments of size ≤ `bruteThreshold` take all members as candidates, which
  * is both cheaper and exact at that scale. Everything is deterministic:
  * ties break by (distance, id).
  */
object ElementalGraphBuilder {

  /** Below this size a segment's candidates are simply all its members. */
  def bruteThreshold(m: Int): Int = math.max(2 * m, 32)

  /** Build layers `top` down to 0 into the shared flat `layers` arrays,
    * assuming layer `top + 1` (if any) is already present: every segment of
    * a layer needs only its children's layer.
    */
  def buildLayers(vs: VecStore, layers: Array[Array[Int]], m: Int, ef: Int, top: Int): Unit =
    for (lay <- top to 0 by -1; (l, r) <- SegmentTree.segmentsAtLayer(vs.n, lay))
      buildSegmentLayer(vs, layers, m, ef, l, r, lay)

  /** Build just segment [l, r]'s graph at layer `lay`, assuming its
    * children's graphs at layer `lay + 1` are present in `layers`. The
    * nodes of a segment above `bruteThreshold` are built in parallel on the
    * common `ForkJoinPool`; smaller segments are too cheap to fork.
    */
  def buildSegmentLayer(vs: VecStore, layers: Array[Array[Int]], m: Int, ef: Int,
                        l: Int, r: Int, lay: Int): Unit = {
    if (r <= l) return
    val nodes = IntStream.rangeClosed(l, r)
    // Node u writes only layers(lay)[u*m, (u+1)*m); the end of forEach happens-before the next segment.
    (if (r - l + 1 <= bruteThreshold(m)) nodes else nodes.parallel())
      .forEach(u => buildNode(vs, layers, m, ef, l, r, lay, u))
  }

  /** Select u's neighbors in segment [l, r] at layer `lay`, reading only
    * `vs` and layer `lay + 1`.
    */
  private def buildNode(vs: VecStore, layers: Array[Array[Int]], m: Int, ef: Int,
                        l: Int, r: Int, lay: Int, u: Int): Unit = {
    val brute = r - l + 1 <= bruteThreshold(m)
    val cands = new SortedList(if (brute) r - l else m + ef)
    // Every member of [lo, hi] except u, at its distance to u.
    def offerAll(lo: Int, hi: Int): Unit = {
      var v = lo
      while (v <= hi) {
        if (v != u) cands.insert(vs.dist2(u, v), v)
        v += 1
      }
    }
    if (brute) offerAll(l, r)
    else {
      val mid = SegmentTree.mid(l, r)
      val childAdj = layers(lay + 1)
      val (siblingLo, siblingHi) =
        if (u <= mid) (mid + 1, r) else (l, mid)
      // No dedup needed: source 1 lies in u's child, source 2 in the sibling, each duplicate-free.
      // 1. u's neighbors in its containing child's graph, read off its slots.
      var slot = u * m
      while (slot < (u + 1) * m && childAdj(slot) >= 0) {
        cands.insert(vs.dist2(u, childAdj(slot)), childAdj(slot))
        slot += 1
      }
      // 2. u's nearest members of the sibling child: all of them when there
      // are at most ef, else a beam search of the sibling's graph.
      if (siblingHi - siblingLo + 1 <= ef) offerAll(siblingLo, siblingHi)
      else {
        val q = vs.vector(u)
        val scratch = new Array[Int](m)
        val found = BeamSearch.search(
          q, (i: Int) => vs.dist2(i, q),
          entries = Seq(SegmentTree.mid(siblingLo, siblingHi)),
          beam = ef, k = ef,
          neighbors = (x: Int) => { System.arraycopy(childAdj, x * m, scratch, 0, m); scratch },
        )
        for (f <- found) cands.insert(f.dist, f.id)
      }
    }
    // u's kept ids, then -1 over whatever its slots held before.
    val kept = RngPrune.prune(vs, cands, m)
    System.arraycopy(kept, 0, layers(lay), u * m, kept.length)
    java.util.Arrays.fill(layers(lay), u * m + kept.length, (u + 1) * m, -1)
  }

  /** Every layer of the index over `vs` (ranks = ids) as -1-padded global-id arrays. */
  def buildAll(vs: VecStore, m: Int, ef: Int): Array[Array[Int]] = {
    val depth = SegmentTree.depth(vs.n)
    val layers = Array.fill(depth)(Array.fill(vs.n * m)(-1))
    buildLayers(vs, layers, m, ef, depth - 1)
    layers
  }

  /** Driver-local build of the full index over `vs`. */
  def build(vs: VecStore, m: Int, ef: Int): ElementalGraphs = new ElementalGraphs(vs.n, m, buildAll(vs, m, ef))
}
