package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.Candidate
import scala.collection.mutable

/** The one curve path behind every Figure 2–5 cell, on fake variants over a
  * fake workload (no Spark, no index).
  */
class TablesSpec extends AnyFunSuite {

  private val gt = Array(Array(1, 2), Array(3, 4))
  private val w = BenchContext.PreparedWorkload("w", Array.fill(2)(Array.emptyFloatArray),
    Array((0, 4), (0, 4)), null, gt)

  private def candidates(ids: Int*): Array[Candidate] = ids.map(Candidate(_, 0f)).toArray

  // Half of each ground-truth list below beam 40, all of it from beam 40 on.
  private val reaches: Tables.Search =
    (qid, beam) => if (beam >= 40) gt(qid).map(Candidate(_, 0f)) else candidates(gt(qid)(0), -1)
  // Half of each list at every beam: never reaches 0.9 recall.
  private val never: Tables.Search = (qid, _) => candidates(gt(qid)(0), -1)

  test("cells sweeps every variant and figure tabulates them with a cell lookup") {
    val fig = Tables.figure("T", Tables.cells("ds", w, Seq("reaches" -> reaches, "never" -> never)))

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

  test("cells calls every variant before it times any variant at the second beam") {
    // (variant, beam) in the order of each pair's first call.
    val firstCalls = mutable.LinkedHashSet.empty[(String, Int)]
    def logged(name: String): Tables.Search = (qid, beam) => {
      firstCalls += name -> beam
      reaches(qid, beam)
    }
    val variants = Seq("a", "b", "c")
    Tables.cells("ds", w, variants.map(v => v -> logged(v)))

    val order = firstCalls.toSeq
    val secondBeam = order.indexWhere(_._2 == BenchUtil.defaultBeams(1))
    assert(secondBeam >= 0)
    for (v <- variants)
      assert(order.indexWhere(_._1 == v) < secondBeam, s"$v first called after a second-beam call: $order")
  }
}
