package repro.data

import org.apache.spark.sql.SparkSession
import repro.graph.VecStore

/** A range-filtering ANN dataset in the paper's canonical form (Section 2.2):
  * objects sorted by attribute A₁ so that id == rank on A₁.
  *
  * @param vs          vectors in A₁-rank order
  * @param attr1Values raw A₁ values, ascending (duplicates allowed)
  * @param attr2Rank   attr2Rank(i) = rank of object i in A₂ order
  * @param queries     held-out query vectors from the same distribution
  */
final case class RfDataset(
    name: String,
    dim: Int,
    vs: VecStore,
    attr1Values: Array[Double],
    attr2Rank: Array[Int],
    queries: Array[Array[Float]],
) {
  def n: Int = vs.n
  /** Raw-vector bytes — the "Raw Vectors" row of Table 2. */
  def rawVectorBytes: Long = vs.sizeBytes
}

/** Synthetic analogs of the paper's five datasets (Table 1), generated with
  * Spark. Vectors are Gaussian mixtures (real embedding sets are clustered;
  * graph-ANN behaviour depends on that local structure), deterministic per
  * (name-seed, id) regardless of partitioning. Dimensions are scaled
  * proportionally from the originals so cross-dataset effects (e.g. the
  * low-dimension YT-Audio behaviour in Section 5.2.1) can reproduce.
  */
object VectorData {

  /** (name, dim, #clusters, seed) — dims scale the paper's 2048/768/512/1024/128. */
  val specs: Seq[(String, Int, Int, Long)] = Seq(
    ("wit-lite", 96, 32, 101L),
    ("tripclick-lite", 48, 24, 202L),
    ("redcaps-lite", 32, 24, 303L),
    ("ytrgb-lite", 64, 32, 404L),
    ("ytaudio-lite", 16, 16, 505L),
  )

  /** Generate one dataset. */
  def generate(spark: SparkSession, name: String, n: Int, dim: Int,
               clusters: Int, nQueries: Int, seed: Long): RfDataset = {
    import spark.implicits._
    // Deterministic cluster centers on the driver, captured by the closure.
    val centerRnd = new java.util.Random(seed)
    val centers = Array.fill(clusters, dim)((centerRnd.nextGaussian() * 4.0).toFloat)

    val rows = spark
      .range(0, (n + nQueries).toLong)
      .as[Long]
      .mapPartitions { it =>
        it.map { id =>
          val rnd = new java.util.Random(seed * 1000003L + id * 7919L + 13L)
          val c = (rnd.nextInt(Int.MaxValue)) % centers.length
          val vec = new Array[Float](dim)
          var j = 0
          while (j < dim) {
            vec(j) = centers(c)(j) + rnd.nextGaussian().toFloat
            j += 1
          }
          val a1 = rnd.nextDouble()
          val a2 = rnd.nextDouble()
          (id, vec, a1, a2)
        }
      }
      .collect()

    val (dataRows, queryRows) = rows.sortBy(_._1).splitAt(n)
    // Rank mapping on A1: sort ascending, ties broken by original id.
    val sorted = dataRows.sortBy(r => (r._3, r._1))
    val vs = VecStore.fromRows(sorted.map(_._2).toIndexedSeq)
    val attr1 = sorted.map(_._3)
    // A2 ranks over the A1-sorted objects.
    val attr2Rank = new Array[Int](n)
    sorted.zipWithIndex
      .sortBy { case (r, _) => (r._4, r._1) }
      .zipWithIndex
      .foreach { case ((_, a1Idx), a2Idx) => attr2Rank(a1Idx) = a2Idx }
    RfDataset(name, dim, vs, attr1, attr2Rank, queryRows.map(_._2))
  }

  /** All five analogs at a given size. */
  def datasets(spark: SparkSession, n: Int, nQueries: Int): Seq[RfDataset] =
    specs.map { case (name, dim, clusters, seed) =>
      generate(spark, name, n, dim, clusters, nQueries, seed)
    }
}
