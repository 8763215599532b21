package repro.graph

import java.util.SplittableRandom
import scala.collection.mutable

/** Hierarchical Navigable Small World graph (Malkov & Yashunin) — the
  * substrate for the Milvus-like, SuperPostfiltering, Post-/In-filtering and
  * Oracle-HNSW baselines, and the reference index whose build cost Table 3
  * compares against (Theorem 3.1's "HNSW on the set of all objects").
  *
  * Faithful to hnswlib: geometric level sampling with mL = 1/ln(M), RNG
  * heuristic neighbor selection (the updated hnswlib pruning rule the paper
  * cites), bidirectional links with overflow pruning, maxM0 = 2M at the base
  * layer, greedy descent from the top level. Deterministic given the
  * insertion order (level sampling uses a fixed seed); ties broken by
  * (dist, id).
  *
  * Operates over ids [lo, hi] (inclusive) of a [[VecStore]] so callers can
  * index attribute-contiguous slices without copying vectors.
  */
final class Hnsw private (
    val vs: VecStore,
    val lo: Int,
    val hi: Int,
    val m: Int,
    val efConstruction: Int,
) {
  private val mL = 1.0 / math.log(m.toDouble)
  private val rnd = new SplittableRandom(Hnsw.Seed)

  // links(l) holds level l as one flat array: node u's links in slots
  // [i*cap, (i+1)*cap) with i = u - lo, neighbor ids first, then -1 padding.
  // A level's array is allocated when a node first reaches it.
  private val links = mutable.ArrayBuffer.empty[Array[Int]]
  private var entryPoint: Int = -1
  private var entryLevel: Int = -1

  def size: Int = hi - lo + 1
  def maxLevel: Int = entryLevel
  def entry: Int = entryPoint

  /** Link cap of a level: maxM0 = 2M at the base, M above. */
  private def cap(level: Int): Int = if (level == 0) 2 * m else m

  /** Number of links of node i in `a` (its slots before the first -1). */
  private def degree(a: Array[Int], c: Int, i: Int): Int = {
    val base = i * c
    var d = 0
    while (d < c && a(base + d) >= 0) d += 1
    d
  }

  /** Set node i's links to `kept` (at most c ids), -1-padded. */
  private def write(a: Array[Int], c: Int, i: Int, kept: Array[Int]): Unit = {
    System.arraycopy(kept, 0, a, i * c, kept.length)
    java.util.Arrays.fill(a, i * c + kept.length, (i + 1) * c, -1)
  }

  /** Append v to node i's links; false (and nothing written) if i is full. */
  private def append(a: Array[Int], c: Int, i: Int, v: Int): Boolean = {
    val d = degree(a, c, i)
    if (d < c) a(i * c + d) = v
    d < c
  }

  /** Beam search restricted to one level of the (partially built) graph —
    * the one traversal under insertion, descent and both public searches.
    */
  private def searchLevel(q: Array[Float], entriesIn: Seq[Int], beam: Int, k: Int, level: Int,
                          visit: Int => Boolean = _ => true,
                          admit: Int => Boolean = BeamSearch.AdmitAll): Array[Candidate] = {
    val a = links(level)
    val c = cap(level)
    val scratch = new Array[Int](c)
    BeamSearch.search(
      q, (i: Int) => vs.dist2(i, q), entriesIn, beam, k,
      neighbors = (u: Int) => { System.arraycopy(a, (u - lo) * c, scratch, 0, c); scratch },
      visit = visit, admit = admit,
    )
  }

  /** Greedy (beam 1) descent from the top entry point down to level `to`. */
  private def descend(q: Array[Float], to: Int): Int = {
    var ep = entryPoint
    var l = entryLevel
    while (l > to) {
      val res = searchLevel(q, Seq(ep), 1, 1, l)
      if (res.nonEmpty) ep = res(0).id
      l -= 1
    }
    ep
  }

  private def insert(u: Int): Unit = {
    val lvl = math.min((-math.log(rnd.nextDouble()) * mL).toInt, 32)
    while (links.length <= lvl) links += Array.fill(size * cap(links.length))(-1)

    if (entryPoint < 0) { entryPoint = u; entryLevel = lvl; return }

    val q = vs.vector(u)
    val cands = new SortedList
    // Insert at each level from min(lvl, entryLevel) down to 0.
    var l = math.min(lvl, entryLevel)
    var eps: Seq[Int] = Seq(descend(q, lvl))
    while (l >= 0) {
      val found = searchLevel(q, eps, efConstruction, efConstruction, l)
      cands.reset(found.length)
      for (f <- found if f.id != u) cands.insert(f.dist, f.id)
      val sel = RngPrune.prune(vs, cands, m)
      val a = links(l)
      val c = cap(l)
      write(a, c, u - lo, sel)
      // Bidirectional links; a full neighbor re-prunes its c links plus u.
      for (v <- sel) {
        if (!append(a, c, v - lo, u)) {
          cands.reset(c + 1)
          for (x <- a.slice((v - lo) * c, (v - lo + 1) * c) :+ u) cands.insert(vs.dist2(v, x), x)
          write(a, c, v - lo, RngPrune.prune(vs, cands, c))
        }
      }
      eps = found.map(_.id).toSeq
      l -= 1
    }
    if (lvl > entryLevel) { entryPoint = u; entryLevel = lvl }
  }

  /** ANN search; `admit` plugs in the Post-filtering strategies. */
  def search(q: Array[Float], k: Int, ef: Int,
             admit: Int => Boolean = BeamSearch.AdmitAll): Array[Candidate] =
    searchBase(q, Seq(descend(q, 0)), k, ef, admit = admit)

  /** Base-layer-only search from caller-chosen entry points — used by the
    * In-filtering strategy, whose entry must itself be in-range (the greedy
    * descent from the top level would land on an arbitrary, likely
    * out-of-range node that `visit` would reject).
    */
  def searchBase(
      q: Array[Float],
      entries: Seq[Int],
      k: Int,
      ef: Int,
      visit: Int => Boolean = _ => true,
      admit: Int => Boolean = BeamSearch.AdmitAll,
  ): Array[Candidate] =
    searchLevel(q, entries, math.max(ef, k), k, 0, visit, admit)

  /** Total directed edges across all levels. */
  def edgeCount: Long = links.iterator.map(_.count(_ >= 0).toLong).sum

  /** Index bytes: 4 bytes per stored neighbor id (as the paper accounts). */
  def sizeBytes: Long = edgeCount * 4L

  /** Degree of u at `level` (0 for a node below that level). */
  def degree(level: Int, u: Int): Int = degree(links(level), cap(level), u - lo)

  def baseNeighbors(u: Int): Array[Int] =
    java.util.Arrays.copyOfRange(links(0), (u - lo) * cap(0), (u - lo) * cap(0) + degree(0, u))
}

object Hnsw {

  /** Seed of the level sampling; every build uses it. */
  private val Seed = 42L

  /** Build over ids [lo, hi] of `vs`, inserting in ascending id order. */
  def build(vs: VecStore, lo: Int, hi: Int, m: Int, efConstruction: Int): Hnsw = {
    require(lo <= hi, s"empty range [$lo,$hi]")
    val h = new Hnsw(vs, lo, hi, m, efConstruction)
    var i = lo
    while (i <= hi) { h.insert(i); i += 1 }
    h
  }

  /** Build over the whole store. */
  def buildAll(vs: VecStore, m: Int, efConstruction: Int): Hnsw =
    build(vs, 0, vs.n - 1, m, efConstruction)
}
