package repro

import java.util.zip.CRC32
import repro.baselines.{FilteredVamana, InFiltering, MilvusLike, OracleHnsw, PostFiltering, SegmentSerf,
  StitchedVamana, SuperPostFiltering}
import repro.core.{BasicSearch, DistributedBuilder, EdgeSelection, ElementalGraphBuilder, IRangeGraph, MultiAttr}
import repro.graph.{BruteForce, Candidate, Hnsw, VecStore}

/** Golden checksums: CRC-32 of every elemental-graph layer and of every
  * method's result ids on one fixed dataset and query set. Refactors of the
  * builders, the edge selection or the search kernel must keep these
  * byte-identical; a changed value means behavior changed, not just speed.
  */
class GoldenChecksumSpec extends SparkSpec {

  private val n = 700
  private val m = 8
  private val ef = 40
  private val k = 10
  private val beam = 10
  // Uniform data in 24 dimensions at beam = k: hard enough that the methods
  // return approximate (and mutually different) answers, so a changed
  // traversal shows up in the ids.
  private val vs = TestData.randomVs(n, 24, seed = 191)
  private val queries = TestData.randomQueries(32, 24, seed = 192)

  // Range lengths n, n/2, ..., n/128, then again from a fresh random start.
  private val ranges: Array[(Int, Int)] = {
    val rnd = new java.util.SplittableRandom(193)
    Array.tabulate(queries.length) { qi =>
      val len = math.max(1, n >> (qi % 8))
      val l = rnd.nextInt(n - len + 1)
      (l, l + len - 1)
    }
  }

  private val attr2Rank: Array[Int] = {
    val rnd = new java.util.Random(194)
    val a = Array.tabulate(n)(identity)
    for (i <- (1 until n).reverse) {
      val j = rnd.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t
    }
    a
  }

  private def crc(ints: Iterator[Int]): String = {
    val c = new CRC32
    val b = java.nio.ByteBuffer.allocate(4)
    ints.foreach { x => b.clear(); b.putInt(x); c.update(b.array()) }
    f"${c.getValue}%08x"
  }

  /** One CRC over the ids of all queries, each list terminated by -1. */
  private def resultCrc(search: Int => Array[Candidate]): String =
    crc(queries.indices.iterator.flatMap(qi => search(qi).iterator.map(_.id) ++ Iterator(-1)))

  private lazy val local = ElementalGraphBuilder.build(vs, m, ef)
  private lazy val ir = new IRangeGraph(vs, local)
  private lazy val hnsw = Hnsw.buildAll(vs, m, ef)

  private val layerCrcs = Seq(
    "07eefaa5", "30e3202d", "aa1e304c", "c44ea183", "a8e17f9c", "04c48d20",
    "27c42bf4", "4310d4c4", "d0305863", "0a3c1f96", "d3817b30")

  private def crcsOf(layers: Array[Array[Int]]): Seq[String] = layers.toSeq.map(a => crc(a.iterator))

  test("local build layers match the golden checksums") {
    assert(crcsOf(local.layers) == layerCrcs)
  }

  // At n = 80 the root's children hold exactly ef = 40 members, so each
  // node takes its whole sibling as candidates; at n = 82 they hold 41, so
  // the sibling is beam-searched.
  for ((size, expected) <- Seq(
         80 -> Seq("b48d8ebf", "49a17a92", "a74a6caa", "c8533efb", "64b58138", "df77a981", "bce5d6bf", "44c1c995"),
         82 -> Seq("5c25c14c", "712ebd14", "32854cdd", "ca99061b", "8837ae84", "677ccbf0", "5ccea63c", "cdd32e8e")))
    test(s"local build layers at n = $size match the golden checksums") {
      val small = TestData.randomVs(size, 24, seed = 196)
      assert(crcsOf(ElementalGraphBuilder.build(small, m, ef).layers) == expected)
    }

  for (cut <- Seq(3, 4)) {
    test(s"Spark build layers match the golden checksums (cutLay=$cut)") {
      assert(crcsOf(DistributedBuilder.build(spark, vs, m, ef, cutLay = cut).layers) == layerCrcs)
    }
  }

  private def golden(name: String, expected: String)(search: Int => Array[Candidate]): Unit =
    test(s"$name result ids match the golden checksum") {
      assert(resultCrc(search) == expected)
    }

  golden("exact top-k (reference)", "c2bdd881") { qi =>
    val (l, r) = ranges(qi); BruteForce.topK(vs, queries(qi), l, r, k)
  }
  // Algorithm 1 itself: the edges selected for every member of every range.
  for ((label, select, expected) <- Seq[(String, (Int, Int, Int, Array[Int]) => Int, String)](
         ("select", EdgeSelection.select(local, _, _, _, _), "bd615b5a"),
         ("selectNoSkip", EdgeSelection.selectNoSkip(local, _, _, _, _), "44b9679b"))) {
    test(s"EdgeSelection.$label edges match the golden checksum") {
      val out = new Array[Int](m + 1)
      val ids = ranges.iterator.flatMap { case (l, r) =>
        (l to r).iterator.flatMap { u =>
          val c = select(u, l, r, out)
          out.iterator.take(c) ++ Iterator(-1)
        }
      }
      assert(crc(ids) == expected)
    }
  }

  golden("IRangeGraph (skipLayers = true)", "8bc98cf5") { qi =>
    val (l, r) = ranges(qi); ir.search(queries(qi), l, r, k, beam)
  }
  golden("IRangeGraph (skipLayers = false)", "8bc98cf5") { qi =>
    val (l, r) = ranges(qi); ir.search(queries(qi), l, r, k, beam, skipLayers = false)
  }
  golden("BasicSearch", "3585803c") { qi =>
    val (l, r) = ranges(qi); BasicSearch.search(vs, local, queries(qi), l, r, k, beam)
  }

  for ((label, strategy, expected) <- Seq[(String, Int => MultiAttr.Strategy, String)](
         ("PostFilter", _ => MultiAttr.PostFilter, "411bf774"),
         ("InFilter", _ => MultiAttr.InFilter, "f2130ccf"),
         ("Probabilistic", qi => MultiAttr.Probabilistic(1000L + qi), "20d9229f"))) {
    golden(s"MultiAttr $label", expected) { qi =>
      val (l, r) = ranges(qi)
      val (l2, r2) = ranges((qi + 3) % ranges.length)
      MultiAttr.search(ir, attr2Rank, queries(qi), l, r, l2, r2, k, beam, strategy(qi))
    }
  }

  golden("PostFiltering", "22f01b7f") { qi =>
    val (l, r) = ranges(qi); PostFiltering.search(hnsw, queries(qi), l, r, k, beam)
  }
  golden("InFiltering", "69237388") { qi =>
    val (l, r) = ranges(qi); InFiltering.search(hnsw, queries(qi), l, r, k, beam)
  }

  private lazy val milvus = new MilvusLike(vs, parts = 6, m = m, efConstruction = ef)
  golden("MilvusLike", "ecc5182e") { qi =>
    val (l, r) = ranges(qi); milvus.search(queries(qi), l, r, k, beam)
  }

  private lazy val superPost = new SuperPostFiltering(vs, m, ef)
  golden("SuperPostFiltering", "2472f79c") { qi =>
    val (l, r) = ranges(qi); superPost.search(queries(qi), l, r, k, beam)
  }

  private lazy val fVamana = new FilteredVamana(vs, buckets = 6, m = m, efConstruction = ef)
  golden("FilteredVamana", "54c73f02") { qi =>
    val (l, r) = ranges(qi); fVamana.search(queries(qi), l, r, k, beam)
  }

  private lazy val sVamana = new StitchedVamana(vs, buckets = 6, m = m, efConstruction = ef)
  golden("StitchedVamana", "66fe1a7e") { qi =>
    val (l, r) = ranges(qi); sVamana.search(queries(qi), l, r, k, beam)
  }

  private lazy val serf = new SegmentSerf(vs, grid = 4, m = m, efConstruction = ef)
  golden("SegmentSerf", "bdb098eb") { qi =>
    val (l, r) = ranges(qi); serf.search(queries(qi), l, r, k, beam)
  }

  private lazy val oracle = new OracleHnsw(vs, ranges, m, ef)
  golden("OracleHnsw", "77a867fc") { qi =>
    val (l, r) = ranges(qi); oracle.search(queries(qi), l, r, k, beam)
  }

  // Every vector stored twice (ids 2i and 2i + 1): each distance ties with
  // the copy's, so these checks see the (distance, id) tie-break.
  private val tieVs = {
    val half = TestData.randomVs(n / 2, 24, seed = 195)
    VecStore.fromRows(IndexedSeq.tabulate(n)(i => half.vector(i / 2)))
  }
  private lazy val tieLocal = ElementalGraphBuilder.build(tieVs, m, ef)
  private lazy val tieIr = new IRangeGraph(tieVs, tieLocal)

  test("local build layers on duplicated vectors match the golden checksums") {
    assert(crcsOf(tieLocal.layers) == Seq(
      "984c7a24", "f771f710", "61b71734", "ab305051", "ff9f8480", "7bd99684",
      "80030646", "213f8345", "8c7c574d", "0a3c1f96", "d3817b30"))
  }
  golden("exact top-k on duplicated vectors", "817184a7") { qi =>
    val (l, r) = ranges(qi); BruteForce.topK(tieVs, queries(qi), l, r, k)
  }
  golden("IRangeGraph on duplicated vectors", "3de6993a") { qi =>
    val (l, r) = ranges(qi); tieIr.search(queries(qi), l, r, k, beam)
  }

  // Adjacency of the baseline graphs: each node's list, terminated by -1.
  private def adjacencyCrc(list: Int => Array[Int]): String =
    crc((0 until n).iterator.flatMap(u => list(u).iterator ++ Iterator(-1)))

  test("Hnsw base adjacency matches the golden checksum") {
    assert(adjacencyCrc(hnsw.baseNeighbors) == "ca238979")
  }
  // Live lists sorted per node: a Vamana graph's live neighbor set is fixed, its order is not.
  test("IncrementalGraph live adjacency (FilteredVamana) matches the golden checksum") {
    assert(adjacencyCrc(u => fVamana.graph.neighbors(u).sorted) == "39ff8c6d")
  }
  for ((t, expected) <- Seq(1 -> "0e743a2d", 64 -> "84d87e03", 333 -> "812980d8", n -> "d65e5b00"))
    test(s"IncrementalGraph.neighborsAsOf(_, $t) (SegmentSerf) matches the golden checksum") {
      assert(adjacencyCrc(u => serf.graphs(0).neighborsAsOf(u, t)) == expected)
    }
}
