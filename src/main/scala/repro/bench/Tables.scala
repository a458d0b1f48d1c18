package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.SynthGraphs
import repro.approx.{ApproxResult, BSApprox, CoreApprox, PeelApprox}
import repro.core.SparkCoreEngine
import repro.exact.DDSExact
import repro.graph.{DigraphOps, LocalDigraph}

/** Dataset specs for the evaluation tables (synthetic stand-ins — see
  * DESIGN.md "Substitutions"). Sizes are chosen so the reproduction runs
  * on one 16-core container while preserving the paper's comparisons
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

  val small: Seq[DatasetSpec] = Seq(toy, erXS, erS, plS)
  val large: Seq[DatasetSpec] = Seq(plS, erM, plM, plant, plL)
  val all: Seq[DatasetSpec]   = Seq(toy, erXS, erS, plS, erM, plM, plant, plL)
}

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

  // ---- Table 2: dataset statistics -------------------------------------
  def table2(spark: SparkSession, specs: Seq[DatasetSpec] = Datasets.all): Seq[String] = {
    val rows = specs.map { spec =>
      val edges = DigraphOps.canonicalize(spec.build(spark)).cache()
      val st = DigraphOps.stats(edges)
      val engine = new SparkCoreEngine(edges)
      val ca = CoreApprox.run(engine)
      engine.release()
      edges.unpersist()
      val row =
        f"${spec.name}%-7s n=${st.n}%8d m=${st.m}%9d maxOut=${st.maxOutDeg}%6d maxIn=${st.maxInDeg}%6d " +
          f"[x*,y*]=[${ca.x}%3d,${ca.y}%3d] ρ(CoreApprox)=${ca.result.density}%9.3f (${ca.result.millis}ms)"
      Console.err.println(s"[table2] $row")
      row
    }
    emit("table2_datasets", rows)
  }

  // ---- Table 3: exact algorithms ---------------------------------------
  final case class ExactBudgets(baselineMs: Long = 120000, dcMs: Long = 300000,
                                coreMs: Long = 300000, runBaseline: Boolean = true)

  def table3(spark: SparkSession,
             entries: Seq[(DatasetSpec, ExactBudgets)]): Seq[String] = {
    val rows = entries.map { case (spec, b) =>
      val edges = DigraphOps.canonicalize(spec.build(spark)).cache()
      edges.count()
      val engine = new SparkCoreEngine(edges)

      val core = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact, b.coreMs))
      val dc = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.DC, b.dcMs))
      val baseline =
        if (b.runBaseline)
          Some(DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.Baseline, b.baselineMs)))
        else None
      engine.release()
      edges.unpersist()

      def cell(r: DDSExact.Result): String =
        fmtMs(r.elapsedMs, r.dnf) + f"(ρ=${r.density}%.3f,p=${r.probes})"
      val row = f"${spec.name}%-7s Baseline=${baseline.fold("-")(cell)}%-34s DC=${cell(dc)}%-30s " +
        f"CoreExact=${fmtMs(core.elapsedMs, core.dnf)}(ρ=${core.density}%.3f,p=${core.probes},flows=${core.flows})"
      Console.err.println(s"[table3] $row")
      row
    }
    emit("table3_exact", rows)
  }

  // ---- Table 4: approximation runtimes ---------------------------------
  def table4(spark: SparkSession, specs: Seq[DatasetSpec] = Datasets.large,
             bsBudgetMs: Long = 180000): Seq[String] = {
    val rows = specs.flatMap { spec =>
      val edges = DigraphOps.canonicalize(spec.build(spark)).cache()
      edges.count()
      val (local, loadMs) = timed(LocalDigraph.fromEdges(edges))

      val peel = PeelApprox.run(local, eps = 0.5)
      // CoreApprox before BSApprox: hundreds of BS broadcast-join rounds
      // degrade the shared session and would pollute CoreApprox's timing
      val engine = new SparkCoreEngine(edges)
      val ca = CoreApprox.run(engine).result
      engine.release()
      val bs = BSApprox.run(edges, eps = 1.0, gridFactor = 2.0, wallBudgetMs = bsBudgetMs)
      edges.unpersist()
      val out = Seq(
        s"${spec.name} (driver edge collect for sequential baseline: ${loadMs}ms)",
        s"  ${peel.row}",
        s"  ${bs.row}",
        s"  ${ca.row}")
      out.foreach(l => Console.err.println(s"[table4] $l"))
      out
    }
    emit("table4_approx_time", rows)
  }

  // ---- Table 5: approximation quality ----------------------------------
  def table5(spark: SparkSession,
             entries: Seq[(DatasetSpec, Option[Long])]): Seq[String] = {
    val rows = entries.map { case (spec, exactBudget) =>
      val edges = DigraphOps.canonicalize(spec.build(spark)).cache()
      edges.count()
      val local = LocalDigraph.fromEdges(edges)
      val engine = new SparkCoreEngine(edges)

      val peel = PeelApprox.run(local, eps = 0.5)
      val bs = BSApprox.runLocal(local, eps = 1.0)
      val ca = CoreApprox.run(engine).result
      val exact = exactBudget.map(ms =>
        DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact, ms)))
      engine.release()
      edges.unpersist()

      val refName = exact.filter(!_.dnf).map(_ => "ρopt").getOrElse("best-known")
      val ref = (Seq(peel.density, bs.density, ca.density) ++ exact.map(_.density)).max
      def ratio(d: Double) = if (ref <= 0) 1.0 else d / ref
      val row = f"${spec.name}%-7s ref($refName)=$ref%9.3f  Peel=${ratio(peel.density)}%.3f " +
        f"BS=${ratio(bs.density)}%.3f CoreApprox=${ratio(ca.density)}%.3f (theoretical ≥ 0.5)"
      Console.err.println(s"[table5] $row")
      row
    }
    emit("table5_approx_quality", rows)
  }

  // ---- Table 6: scalability --------------------------------------------
  def table6(spark: SparkSession, sizes: Seq[Long] = Seq(12500, 25000, 50000, 100000)): Seq[String] = {
    val rows = sizes.map { n =>
      val edges = DigraphOps.canonicalize(
        SynthGraphs.powerLaw(spark, n, n * 10, seed = 31)).cache() // average degree 10
      val m = edges.count()
      val engine = new SparkCoreEngine(edges)
      val (ca, ms) = timed(CoreApprox.run(engine))
      engine.release()
      edges.unpersist()
      val row = f"n=$n%8d m=$m%9d CoreApprox=${ms}%7d ms ρ=${ca.result.density}%9.3f [x*,y*]=[${ca.x},${ca.y}]"
      Console.err.println(s"[table6] $row")
      row
    }
    emit("table6_scalability", rows)
  }

  // ---- Table 7: core pruning effect on flow networks -------------------
  def table7(spark: SparkSession, spec: DatasetSpec = Datasets.plS,
             budgetMs: Long = 300000): Seq[String] = {
    val edges = DigraphOps.canonicalize(spec.build(spark)).cache()
    edges.count()
    val engine = new SparkCoreEngine(edges)
    val dc = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.DC, budgetMs))
    val core = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact, budgetMs))
    engine.release()
    edges.unpersist()
    def summarize(r: DDSExact.Result): String = {
      val ns = r.flowNodes
      if (ns.isEmpty) "no flows"
      else f"flows=${ns.size} nodes(first)=${ns.head} nodes(max)=${ns.max} nodes(median)=${ns.sorted.apply(ns.size / 2)} nodes(total)=${ns.map(_.toLong).sum}"
    }
    val rows = Seq(
      s"${spec.name} DC(full-graph flows):   ${summarize(dc)} time=${fmtMs(dc.elapsedMs, dc.dnf)}",
      s"${spec.name} CoreExact(core flows):  ${summarize(core)} time=${fmtMs(core.elapsedMs, core.dnf)}",
      f"${spec.name} agreement: ρ(DC)=${dc.density}%.4f ρ(CoreExact)=${core.density}%.4f")
    emit("table7_flow_pruning", rows)
  }
}
