package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Reproduces Table 1 (datasets). Prints our analog roster; asserts the
  * structural facts the paper's table conveys.
  */
class Table1DatasetsBench extends AnyFunSuite {

  test("Table 1 - datasets") {
    val text = Tables.table1()
    println(text)
    val dss = BenchContext.datasets
    assert(dss.length == 5)
    assert(dss.map(_.dim) == Seq(96, 48, 32, 64, 16)) // scaled 2048/768/512/1024/128
    assert(dss.forall(_.n == BenchContext.n))
    assert(dss.forall(_.queries.length == BenchContext.nQueries))
  }
}
