package perfbench

import repro.core.{DistributedBuilder, ElementalGraphBuilder, ElementalGraphs, SegmentTree}
import repro.graph.VecStore

/** Per-layer build trace, measured from outside the builder: drives the
  * public `buildSegmentLayer` bottom-up over every segment of each layer and
  * times each layer as a whole.
  */
object BuildTrace {

  /** Default cut layer of `DistributedBuilder.build`: layers above it are
    * built single-threaded on the Spark driver.
    */
  val SparkCutLayer = 4

  /** Layered build of the full index; returns it with seconds per layer. */
  def layered(vs: VecStore, m: Int, ef: Int): (ElementalGraphs, Array[Double]) = {
    val n = vs.n
    val depth = SegmentTree.depth(n)
    val layers = Array.fill(depth)(Array.fill(n * m)(-1))
    val seconds = new Array[Double](depth)
    var lay = depth - 1
    while (lay >= 0) {
      val t0 = System.nanoTime()
      for ((l, r) <- DistributedBuilder.segmentsAtLayer(n, lay))
        ElementalGraphBuilder.buildSegmentLayer(vs, layers, m, ef, l, r, lay)
      seconds(lay) = (System.nanoTime() - t0) / 1e9
      lay -= 1
    }
    (new ElementalGraphs(n, m, layers), seconds)
  }

  /** Number of top layers the Spark build finishes on the driver. */
  def driverLayers(n: Int): Int = math.max(0, math.min(SparkCutLayer, SegmentTree.depth(n) - 1))

  /** Full equality of two indexes: every layer, every slot. */
  def sameGraphs(a: ElementalGraphs, b: ElementalGraphs): Boolean =
    a.n == b.n && a.m == b.m && a.numLayers == b.numLayers &&
      a.layers.indices.forall(i => java.util.Arrays.equals(a.layers(i), b.layers(i)))
}
