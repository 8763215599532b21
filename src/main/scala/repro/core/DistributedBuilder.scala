package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph.VecStore

/** Spark-parallel materialization of the elemental graphs.
  *
  * The segment tree's recursive structure makes the lower subtrees
  * independent: every segment at a chosen cut layer is built as one Spark
  * task over its [[VecStore.slice]], and only the top `cutLay` layers —
  * whose candidate searches span sibling subtrees — are finished on the
  * driver using the already-merged child adjacency. Because the local split
  * `mid(0, r-l) = mid(l, r) - l`, a subtree built on a slice is bit-identical
  * to the same subtree built in place, so the distributed build equals the
  * driver-local build exactly (asserted in tests).
  */
object DistributedBuilder {

  /** Build the full index; `cutLay` defaults to 4 (16 parallel subtrees).
    * The cut is clamped to `depth - 2`, the deepest layer whose segments
    * still partition the ranks; at cut 0 one task builds the whole index.
    */
  def build(spark: SparkSession, vs: VecStore, m: Int, ef: Int,
            cutLay: Int = 4): ElementalGraphs = {
    val n = vs.n
    val depth = SegmentTree.depth(n)
    val cut = math.max(0, math.min(cutLay, depth - 2))
    val segs = SegmentTree.segmentsAtLayer(n, cut)
    val built = spark.sparkContext
      .parallelize(segs.map { case (l, r) => (l, vs.slice(l, r + 1)) }, segs.length)
      .map { case (l, slice) => (l, ElementalGraphBuilder.build(slice, m, ef).layers) }
      .collect()

    // Merge subtree adjacency into the global layers (local ids -> + l).
    val layers = Array.fill(depth)(Array.fill(n * m)(-1))
    for ((l, sub) <- built; d <- sub.indices; i <- sub(d).indices) {
      val v = sub(d)(i)
      layers(cut + d)(l * m + i) = if (v < 0) -1 else v + l
    }

    ElementalGraphBuilder.buildLayers(vs, layers, m, ef, cut - 1)
    new ElementalGraphs(n, m, layers)
  }

  /** Forwarder kept for the benchmark harness (`perfbench/src/BuildTrace.scala`). */
  def segmentsAtLayer(n: Int, lay: Int): Seq[(Int, Int)] = SegmentTree.segmentsAtLayer(n, lay)
}
