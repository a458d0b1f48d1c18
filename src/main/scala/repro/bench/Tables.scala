package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthGraphs
import repro.approx.{ApproxResult, BSApprox, CoreApprox, PeelApprox}
import repro.core.SparkCoreEngine
import repro.exact.DDSExact
import repro.graph.DigraphOps

/** Dataset specs for the evaluation tables (synthetic stand-ins — see
  * DESIGN.md "Substitutions"). Sizes are chosen so the reproduction runs
  * on one 4-core host while preserving the paper's comparisons
  * (baseline exact infeasible beyond tiny graphs, approximations scale).
  */
final case class DatasetSpec(name: String, build: SparkSession => DataFrame)

object Datasets {
  val toy   = DatasetSpec("TOY",    s => SynthGraphs.toy(s))
  val erXS  = DatasetSpec("ER-XS",  s => SynthGraphs.er(s, 60, 400, seed = 21))
  val erS   = DatasetSpec("ER-S",   s => SynthGraphs.er(s, 300, 2200, seed = 22))
  val plS   = DatasetSpec("PL-S",   s => SynthGraphs.powerLaw(s, 2000, 20000, seed = 23))
  val erM   = DatasetSpec("ER-M",   s => SynthGraphs.er(s, 10000, 150000, seed = 24))
  val plM   = DatasetSpec("PL-M",   s => SynthGraphs.powerLaw(s, 20000, 200000, seed = 25))
  val plL   = DatasetSpec("PL-L",   s => SynthGraphs.powerLaw(s, 50000, 500000, seed = 26))
  val plant = DatasetSpec("PLANT",
    s => SynthGraphs.planted(s, 20000, 200000, 40, 60, 0.5, seed = 27))

  val large: Seq[DatasetSpec] = Seq(plS, erM, plM, plant, plL)
  val all: Seq[DatasetSpec]   = Seq(toy, erXS, erS, plS, erM, plM, plant, plL)
}

/** One harness per evaluation table. Each table's datasets, budgets and
  * sizes are fixed here, so every run of a table runs the same entries.
  */
object Tables {

  private def fmtMs(ms: Long, dnf: Boolean): String =
    if (dnf) f">${ms / 1000.0}%.1fs(DNF)" else if (ms < 10000) s"${ms}ms" else f"${ms / 1000.0}%.1fs"

  /** Print rows and write them to bench/results/<name>.txt. A failed write
    * is reported on stderr, not thrown: the printed rows are the result.
    */
  def emit(table: String, rows: Seq[String]): Seq[String] = {
    val header = s"==== $table ===="
    (header +: rows).foreach(println)
    val file = Paths.get(sys.props.getOrElse("repro.results.dir", "bench/results"), s"$table.txt")
    try {
      Files.createDirectories(file.getParent)
      Files.write(file,
        ((header +: rows).mkString("", "\n", "\n")).getBytes("UTF-8"),
        StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
    } catch {
      case NonFatal(e) => Console.err.println(s"[emit] warning: $file not written: $e")
    }
    rows
  }

  def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1000000L)
  }

  /** An approximation's row: its answer, its time and ``note``. */
  private def approxRow(algo: String, r: ApproxResult, ms: Long, note: String): String =
    f"  $algo%-12s ρ=${r.density}%10.4f |S|=${r.sSize}%7d |T|=${r.tSize}%7d ${fmtMs(ms, r.budgetHit)}%12s $note"

  private var warmedUp = false

  /** Run ``body`` on a Spark engine over ``graph`` with the engine's set-up
    * timed first: canonicalize, cache fill and count, and the whole-graph
    * collect or all-degrees pass that ``n`` reads. So no algorithm's clock
    * pays for it. The engine's cached ``base`` is the table's one copy of
    * the graph; it is released after ``body``. The first call in a JVM
    * sets up an engine on TOY first, untimed, so that the first row's
    * set-up does not carry Spark's cold start.
    */
  private def withEngine[A](graph: DataFrame)(body: (SparkCoreEngine, Long) => A): A = {
    if (!warmedUp) {
      warmedUp = true
      withEngine(Datasets.toy.build(graph.sparkSession))((_, _) => ())
    }
    val engine = new SparkCoreEngine(graph)
    try body(engine, timed(engine.n)._2)
    finally engine.release()
  }

  // ---- Table 2: dataset statistics -------------------------------------
  def table2(spark: SparkSession): Seq[String] = {
    val rows = Datasets.all.map { spec =>
      withEngine(spec.build(spark)) { (engine, setupMs) =>
        val st = DigraphOps.stats(engine.allDegrees)
        val (ca, ms) = timed(CoreApprox.run(engine))
        val row =
          f"${spec.name}%-7s n=${st.n}%8d m=${st.m}%9d maxOut=${st.maxOutDeg}%6d maxIn=${st.maxInDeg}%6d " +
            f"setup=${setupMs}%6dms [x*,y*]=[${ca.x}%3d,${ca.y}%3d] " +
            f"ρ(CoreApprox)=${ca.result.density}%9.3f (${ms}ms)"
        Console.err.println(s"[table2] $row")
        row
      }
    }
    emit("table2_datasets", rows)
  }

  // ---- Table 3: exact algorithms ---------------------------------------
  // (dataset, Baseline budget (None: not run), DC budget, CoreExact budget), in ms
  private val table3Entries = Seq(
    (Datasets.toy,  Some(60000L), 120000L, 120000L),
    (Datasets.erXS, Some(90000L), 120000L, 120000L),
    (Datasets.erS,  Some(90000L), 180000L, 180000L),
    (Datasets.plS,  None,         240000L, 240000L))

  def table3(spark: SparkSession): Seq[String] = {
    val rows = table3Entries.map { case (spec, baselineMs, dcMs, coreMs) =>
      withEngine(spec.build(spark)) { (engine, setupMs) =>
        def run(mode: DDSExact.Mode, ms: Long) = timed(DDSExact.run(engine, DDSExact.Config(mode, ms)))
        val (core, coreTime) = run(DDSExact.Mode.CoreExact, coreMs)
        val dc = run(DDSExact.Mode.DC, dcMs)
        val baseline = baselineMs.map(run(DDSExact.Mode.Baseline, _))

        val cell: ((DDSExact.Result, Long)) => String = { case (r, ms) =>
          fmtMs(ms, r.dnf) + f"(ρ=${r.density}%.3f,p=${r.probes})" }
        val row = f"${spec.name}%-7s setup=${fmtMs(setupMs, dnf = false)}%-8s " +
          f"Baseline=${baseline.fold("-")(cell)}%-34s DC=${cell(dc)}%-30s " +
          f"CoreExact=${fmtMs(coreTime, core.dnf)}(ρ=${core.density}%.3f,p=${core.probes},flows=${core.flows})"
        Console.err.println(s"[table3] $row")
        row
      }
    }
    emit("table3_exact", rows)
  }

  // ---- Table 4: approximation runtimes ---------------------------------
  def table4(spark: SparkSession): Seq[String] = {
    val rows = Datasets.large.flatMap { spec =>
      withEngine(spec.build(spark)) { (engine, setupMs) =>
        // within the engine's cutoff, the digraph its set-up collected
        val (local, loadMs) = timed(engine.fullSub())
        val (peel, peelMs) = timed(PeelApprox.run(local, eps = 0.5))
        // CoreApprox before BSApprox: hundreds of BS rounds degrade the
        // shared session and would pollute CoreApprox's timing
        val (ca, caMs) = timed(CoreApprox.run(engine))
        val (bs, bsMs) = timed(BSApprox.run(engine, eps = 1.0, gridFactor = 2.0, wallBudgetMs = 120000))
        val out = Seq(
          s"${spec.name} (engine set-up: ${setupMs}ms; fullSub for sequential baseline: ${loadMs}ms)",
          approxRow("PeelApprox", peel, peelMs, "eps=0.50"),
          approxRow("BSApprox", bs, bsMs, "eps=1.0 grid=2.0"),
          approxRow("CoreApprox", ca.result, caMs, s"[x*,y*]=[${ca.x},${ca.y}]"))
        out.foreach(l => Console.err.println(s"[table4] $l"))
        out
      }
    }
    emit("table4_approx_time", rows)
  }

  // ---- Table 5: approximation quality ----------------------------------
  // (dataset, CoreExact budget for ρopt in ms (None: not run))
  private val table5Entries = Seq(
    Datasets.plS   -> Some(240000L),
    Datasets.erM   -> None,
    Datasets.plM   -> None,
    Datasets.plant -> Some(240000L))

  def table5(spark: SparkSession): Seq[String] = {
    val rows = table5Entries.map { case (spec, exactBudget) =>
      withEngine(spec.build(spark)) { (engine, setupMs) =>
        val local = engine.fullSub()
        val peel = PeelApprox.run(local, eps = 0.5)
        val bs = BSApprox.runLocal(local, eps = 1.0)
        val ca = CoreApprox.run(engine).result
        val exact = exactBudget.map(ms =>
          DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact, ms)))

        val refName = exact.filter(!_.dnf).map(_ => "ρopt").getOrElse("best-known")
        val ref = (Seq(peel.density, bs.density, ca.density) ++ exact.map(_.density)).max
        def ratio(d: Double) = if (ref <= 0) 1.0 else d / ref
        val row = f"${spec.name}%-7s setup=${setupMs}%6dms ref($refName)=$ref%9.3f  Peel=${ratio(peel.density)}%.3f " +
          f"BS=${ratio(bs.density)}%.3f CoreApprox=${ratio(ca.density)}%.3f (theoretical ≥ 0.5)"
        Console.err.println(s"[table5] $row")
        row
      }
    }
    emit("table5_approx_quality", rows)
  }

  // ---- Table 6: scalability --------------------------------------------
  def table6(spark: SparkSession): Seq[String] = {
    val rows = Seq(12500L, 25000L, 50000L, 100000L).map { n =>
      // average degree 10
      withEngine(SynthGraphs.powerLaw(spark, n, n * 10, seed = 31)) { (engine, setupMs) =>
        val (ca, ms) = timed(CoreApprox.run(engine))
        val row = f"n=$n%8d m=${engine.m}%9d setup=${setupMs}%7d ms CoreApprox=${ms}%7d ms " +
          f"ρ=${ca.result.density}%9.3f [x*,y*]=[${ca.x},${ca.y}]"
        Console.err.println(s"[table6] $row")
        row
      }
    }
    emit("table6_scalability", rows)
  }

  // ---- Table 7: core pruning effect on flow networks -------------------
  def table7(spark: SparkSession): Seq[String] = {
    val spec = Datasets.plS
    val budgetMs = 240000L
    val rows = withEngine(spec.build(spark)) { (engine, setupMs) =>
      val (dc, dcMs) = timed(DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.DC, budgetMs)))
      val (core, coreMs) = timed(DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact, budgetMs)))
      def summarize(r: DDSExact.Result): String = {
        val ns = r.flowNodes
        if (ns.isEmpty) "no flows"
        else f"flows=${ns.size} nodes(first)=${ns.head} nodes(max)=${ns.max} nodes(median)=${ns.sorted.apply(ns.size / 2)} nodes(total)=${ns.map(_.toLong).sum}"
      }
      Seq(
        s"${spec.name} DC(full-graph flows):   ${summarize(dc)} time=${fmtMs(dcMs, dc.dnf)}",
        s"${spec.name} CoreExact(core flows):  ${summarize(core)} time=${fmtMs(coreMs, core.dnf)}",
        f"${spec.name} agreement: ρ(DC)=${dc.density}%.4f ρ(CoreExact)=${core.density}%.4f setup=${setupMs}ms")
    }
    emit("table7_flow_pruning", rows)
  }
}
