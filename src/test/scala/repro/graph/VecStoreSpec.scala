package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class VecStoreSpec extends AnyFunSuite {

  test("fromRows round-trips vectors") {
    val rows = IndexedSeq(Array(1f, 2f), Array(3f, 4f), Array(5f, 6f))
    val vs = VecStore.fromRows(rows)
    assert(vs.n == 3 && vs.dim == 2)
    assert(vs.vector(0).toSeq == Seq(1f, 2f))
    assert(vs.vector(2).toSeq == Seq(5f, 6f))
  }

  test("dist2 against query matches manual computation") {
    val vs = VecStore.fromRows(IndexedSeq(Array(0f, 0f), Array(3f, 4f)))
    assert(vs.dist2(1, Array(0f, 0f)) == 25f)
    assert(vs.dist2(0, Array(1f, 1f)) == 2f)
  }

  test("dist2 between stored vectors is symmetric and zero on self") {
    val vs = TestData.randomVs(20, 8, seed = 5)
    for (i <- 0 until 20; j <- 0 until 20) {
      assert(math.abs(vs.dist2(i, j) - vs.dist2(j, i)) < 1e-4f)
    }
    for (i <- 0 until 20) assert(vs.dist2(i, i) == 0f)
  }

  test("dist2(i, q) agrees with dist2(i, j) when q is vector j") {
    val vs = TestData.randomVs(15, 6, seed = 6)
    for (i <- 0 until 15; j <- 0 until 15) {
      assert(math.abs(vs.dist2(i, vs.vector(j)) - vs.dist2(i, j)) < 1e-5f)
    }
  }

  test("slice remaps ids and preserves vectors") {
    val vs = TestData.randomVs(30, 4, seed = 7)
    val s = vs.slice(10, 25)
    assert(s.n == 15 && s.dim == 4)
    for (i <- 0 until 15) assert(s.vector(i).toSeq == vs.vector(10 + i).toSeq)
  }

  test("slice distances equal original distances") {
    val vs = TestData.randomVs(30, 4, seed = 8)
    val s = vs.slice(5, 20)
    for (i <- 0 until 15; j <- 0 until 15)
      assert(s.dist2(i, j) == vs.dist2(5 + i, 5 + j))
  }

  test("sizeBytes counts 4 bytes per float") {
    val vs = TestData.randomVs(10, 3, seed = 9)
    assert(vs.sizeBytes == 10L * 3 * 4)
  }

  test("fromRows rejects ragged rows") {
    intercept[IllegalArgumentException] {
      VecStore.fromRows(IndexedSeq(Array(1f), Array(1f, 2f)))
    }
  }

  test("slice rejects bad bounds") {
    val vs = TestData.randomVs(10, 2, seed = 10)
    intercept[IllegalArgumentException] { vs.slice(-1, 5) }
    intercept[IllegalArgumentException] { vs.slice(5, 11) }
    intercept[IllegalArgumentException] { vs.slice(7, 3) }
  }
}
