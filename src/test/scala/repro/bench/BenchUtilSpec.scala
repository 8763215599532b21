package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchUtil._
import repro.graph.Candidate

class BenchUtilSpec extends AnyFunSuite {

  private def candidates(ids: Int*): Array[Candidate] = ids.map(Candidate(_, 0f)).toArray

  test("qpsAtRecall returns None when the target is never reached") {
    val curve = Seq(CurvePoint(10, 0.5, 1000), CurvePoint(20, 0.7, 600))
    assert(qpsAtRecall(curve, 0.9).isEmpty)
  }

  test("qpsAtRecall returns the first point's qps when it already qualifies") {
    val curve = Seq(CurvePoint(10, 0.95, 1000), CurvePoint(20, 0.99, 600))
    assert(qpsAtRecall(curve, 0.9).contains(1000.0))
  }

  test("qpsAtRecall interpolates between bracketing points") {
    val curve = Seq(CurvePoint(10, 0.8, 1000), CurvePoint(20, 1.0, 100))
    val got = qpsAtRecall(curve, 0.9).get
    assert(got > 100 && got < 1000)
    // log-space midpoint of 100..1000 at w=0.5 is ~316
    assert(math.abs(got - math.sqrt(100.0 * 1000.0)) < 1.0)
  }

  test("qpsAtRecall handles unsorted input by beam") {
    val curve = Seq(CurvePoint(20, 1.0, 100), CurvePoint(10, 0.8, 1000))
    assert(qpsAtRecall(curve, 0.9).isDefined)
  }

  test("maxRecall of empty curve is 0") {
    assert(maxRecall(Seq.empty) == 0.0)
    assert(maxRecall(Seq(CurvePoint(1, 0.4, 1), CurvePoint(2, 0.6, 1))) == 0.6)
  }

  test("measure computes recall against ground truth") {
    val gt = Array(Array(1, 2), Array(3, 4))
    val p = measure((qid, _) => if (qid == 0) candidates(1, 2) else candidates(3, 9), 10, gt)
    assert(math.abs(p.recall - 0.75) < 1e-9)
    assert(p.qps > 0)
  }

  test("sweep stops early at stopRecall") {
    val gt = Array(Array(1))
    val curve = sweep((_, _) => candidates(1), gt)
    assert(curve.length == 1) // first beam already at recall 1.0
  }

  test("formatTable aligns columns and includes every row") {
    val t = formatTable("T", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    assert(t.contains("== T =="))
    assert(t.linesIterator.size == 5)
  }

  test("seconds measures elapsed time") {
    val (v, s) = seconds { Thread.sleep(20); 42 }
    assert(v == 42)
    assert(s >= 0.015)
  }

  test("fmt helpers") {
    assert(fmtQps(None) == "fail")
    assert(fmtQps(Some(1234.6)) == "1235")
    assert(fmtMB(1000000L) == "1.00")
    assert(fmtMB(1572864L) == "1.57")
  }

  test("cpuSeconds keeps a parallel stream inside its body on one thread") {
    val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
    val (sum, cpu) = cpuSeconds {
      java.util.stream.IntStream.range(0, 1 << 16).parallel()
        .map { i => threads.add(Thread.currentThread()); i & 7 }
        .sum()
    }
    assert(sum == (1 << 13) * 28)
    assert(threads.size == 1)
    assert(cpu >= 0)
  }

  test("cpuSeconds rethrows the body's exception") {
    intercept[IllegalStateException](cpuSeconds[Int](throw new IllegalStateException("boom")))
  }
}
