package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** The one curve path behind every Figure 2–5 cell, on fake variants over a
  * fake ground truth (no Spark, no index).
  */
class TablesSpec extends AnyFunSuite {

  private val gt = Array(Array(1, 2), Array(3, 4))

  // Half of each ground-truth list below beam 40, all of it from beam 40 on.
  private val reaches: Tables.Search =
    (qid, beam) => if (beam >= 40) gt(qid) else Array(gt(qid)(0), -1)
  // Half of each list at every beam: never reaches 0.9 recall.
  private val never: Tables.Search = (qid, _) => Array(gt(qid)(0), -1)

  test("cells sweeps every variant and figure tabulates them with a cell lookup") {
    val fig = Tables.figure("T", Tables.cells("ds", "w", gt, Seq("reaches" -> reaches, "never" -> never)))

    assert(fig.cells.map(c => (c.dataset, c.workload, c.method)) ==
      Seq(("ds", "w", "reaches"), ("ds", "w", "never")))
    val hit = fig.cell("ds", "w", "reaches")
    assert(hit.qpsAt09.exists(_ > 0))
    assert(hit.maxRecall == 1.0)
    val miss = fig.cell("ds", "w", "never")
    assert(miss.qpsAt09.isEmpty)
    assert(miss.maxRecall == 0.5)
    intercept[NoSuchElementException](fig.cell("ds", "other", "reaches"))

    val lines = fig.text.linesIterator.toSeq
    def columns(line: String): Seq[String] = line.split('|').toSeq.map(_.trim).filter(_.nonEmpty)
    assert(lines.head == "== T ==")
    assert(columns(lines(1)) == Seq("dataset", "workload", "method", "qps@0.9", "maxRecall"))
    assert(lines.length == 5)
    val Seq(reachRow, neverRow) = lines.drop(3).map(columns)
    assert(reachRow.take(3) == Seq("ds", "w", "reaches") && reachRow(3) != "fail" && reachRow(4) == "1.000")
    assert(neverRow == Seq("ds", "w", "never", "fail", "0.500"))
  }
}
