package repro.jobs

import repro.bench.{BenchContext, Tables}

/** spark-submit entrypoint for every reproduced table/figure:
  *
  * {{{
  * spark-submit --class repro.jobs.Main target/scala-2.13/repro_2.13-*.jar \
  *   <table1|table2|table3|fig2|fig3|fig4|fig5|all> [dataset...]
  * }}}
  *
  * `all` runs every artifact in order. Optional dataset names restrict the
  * figures (default: all five datasets; ytrgb-lite and ytaudio-lite for
  * fig5). Scale is controlled by REPRO_BENCH_N / REPRO_BENCH_Q (defaults:
  * n = 4096, 200 queries).
  */
object Main {

  def main(args: Array[String]): Unit = {
    val named = args.toSeq.drop(1)
    def names(default: => Seq[String]): Seq[String] = if (named.nonEmpty) named else default
    def all = BenchContext.datasets.map(_.name)
    val artifacts = Seq[(String, () => String)](
      "table1" -> (() => Tables.table1()),
      "table2" -> (() => Tables.table2().text),
      "table3" -> (() => Tables.table3().text),
      "fig2" -> (() => Tables.fig2(names(all)).text),
      "fig3" -> (() => Tables.fig3(names(all)).text),
      "fig4" -> (() => Tables.fig4(names(all)).text),
      "fig5" -> (() => Tables.fig5(names(Seq("ytrgb-lite", "ytaudio-lite"))).text),
    )
    val chosen = args.headOption match {
      case Some("all") => artifacts
      case Some(a) if artifacts.exists(_._1 == a) => artifacts.filter(_._1 == a)
      case _ =>
        System.err.println(s"usage: repro.jobs.Main <${artifacts.map(_._1).mkString("|")}|all> [dataset...]")
        sys.exit(2)
    }
    chosen.foreach { case (_, run) => println(run()) }
    BenchContext.spark.stop()
  }
}
