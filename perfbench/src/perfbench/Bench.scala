package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.approx.CoreApprox
import repro.core.{CoreEngine, SparkCoreEngine}
import repro.exact.DDSExact
import scala.collection.mutable.ArrayBuffer

/** What a query returned, in the form the checks and metrics need. */
final case class Answer(x: Int, y: Int, s: Array[Long], t: Array[Long], m: Long, density: Double,
                        probes: Int = 0, flows: Int = 0, flowNodesTotal: Long = 0,
                        flowNodesMax: Long = 0) {
  def xy: Long = x.toLong * y
}

/** The DDS benchmark: runs one workload's query on fresh production engines
  * (``new SparkCoreEngine(edges)``) for a fixed time and prints its metrics.
  *
  *   Bench --workload NAME --seed N --seconds S --trace 0|1
  *         [--threads N] [--out DIR]
  *   Bench --selftest [--threads N] [--out DIR]
  *
  * The last line of standard output is one JSON object with the keys
  * correct, attempted, failed and metrics: the end-to-end metrics with
  * ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
  */
object Bench {

  val ShufflePartitions = 8
  /** ``SparkCoreEngine``'s default local cutoff (edges), scaled for the warm-up. */
  val DefaultCutoff = 400000L
  val MinSetups = 3

  final case class Opts(workload: String = "", seed: Long = Workload.defaultSeed, seconds: Int = 10,
                        trace: Boolean = false, threads: Int = 0, out: String = ".",
                        selftest: Boolean = false)

  private def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil                          => o
    case "--workload" :: v :: rest    => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest        => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest     => parse(rest, o.copy(seconds = v.toInt))
    case "--trace" :: v :: rest       => parse(rest, o.copy(trace = v.toInt != 0))
    case "--threads" :: v :: rest     => parse(rest, o.copy(threads = v.toInt))
    case "--out" :: v :: rest         => parse(rest, o.copy(out = v))
    case "--selftest" :: rest         => parse(rest, o.copy(selftest = true))
    case a :: _                       => throw new IllegalArgumentException(s"unknown argument $a")
  }

  def session(threads: Int, out: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(out, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(out, "spark-warehouse").toAbsolutePath.toString)
      // keep Spark's own bookkeeping from growing the heap across repetitions
      .config("spark.ui.retainedJobs", 20L)
      .config("spark.ui.retainedStages", 20L)
      .config("spark.ui.retainedTasks", 1000L)
      .config("spark.sql.ui.retainedExecutions", 5L)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def main(args: Array[String]): Unit = {
    val o0 = parse(args.toList)
    val o = o0.copy(threads =
      if (o0.threads > 0) o0.threads else math.min(4, Runtime.getRuntime.availableProcessors()))
    Files.createDirectories(Paths.get(o.out))
    val ok =
      if (o.selftest) SelfTest.run(o)
      else new Run(Workload.byName(o.workload), o).apply()
    sys.exit(if (ok) 0 else 1)
  }

  private val edgeSchema = StructType(Seq(
    StructField("src", LongType, nullable = false), StructField("dst", LongType, nullable = false)))

  /** The program's input: the raw edge list as a DataFrame (src, dst). */
  def inputFrame(spark: SparkSession, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, ShufflePartitions), edgeSchema)

  def rows(g: Graph): Seq[Row] = g.srcRaw.indices.map(i => Row(g.srcRaw(i), g.dstRaw(i)))

  def query(q: Query, engine: CoreEngine): Answer = q match {
    case Query.CoreApprox =>
      val d = CoreApprox.run(engine)
      Answer(d.x, d.y, d.candidate.s, d.candidate.t, d.candidate.m, d.result.density)
    case Query.CoreExact =>
      val r = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact))
      val (x, y) = r.maxXY.getOrElse((0, 0))
      Answer(x, y, r.best.s, r.best.t, r.best.m, r.density, r.probes, r.flows,
             r.flowNodes.map(_.toLong).sum, if (r.flowNodes.isEmpty) 0L else r.flowNodes.max.toLong)
  }

  /** Failures of ``a`` as an answer on ``g``; ``rec`` adds the recorded values. */
  def check(q: Query, g: Graph, a: Answer, rec: Option[Recorded]): Seq[String] = q match {
    case Query.CoreApprox =>
      Checks.approx(g, a.x, a.y, a.s, a.t, a.m, a.density, rec.map(_.xy))
    case Query.CoreExact =>
      Checks.exact(g, a.xy, a.s, a.t, a.m, a.density, rec.map(_.xy), rec.flatMap(_.opt))
  }

  def median(v: Iterable[Double]): Double = {
    val s = v.toArray.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Heap in use after a full collection. The second collection follows a
    * pause in which Spark's cleaner thread drops the blocks of broadcasts
    * the first one found unreachable.
    */
  def liveHeapMb(): Double = {
    System.gc()
    Thread.sleep(200)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** A progress line, stamped with seconds since the JVM started. */
  def say(line: String): Unit = {
    println(f"[perfbench ${ManagementFactory.getRuntimeMXBean.getUptime / 1000.0}%6.1f] $line")
    Console.out.flush()
  }

  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.math.BigDecimal.valueOf(v).toPlainString

  /** The result line: metrics are (name, value, unit). */
  def resultJson(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    metrics.map { case (k, v, u) => s""""$k": {"value": ${num(v)}, "unit": "$u"}""" }
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")

  def writeFile(path: String, text: String): Unit =
    Files.write(Paths.get(path), text.getBytes(StandardCharsets.UTF_8))
}

/** One invocation on one workload. */
final class Run(w: Workload, o: Bench.Opts) {
  import Bench._

  private val spark = session(o.threads, o.out)
  private val sc = spark.sparkContext

  /** A graph as the program receives it, with the engine cutoff to use
    * (None = the engine's default) and the recorded values its answers must match.
    */
  private final class Input(val g: Graph, val cutoff: Option[Long], val rec: Option[Recorded]) {
    val rows: Seq[Row] = Bench.rows(g)
  }
  private val input = new Input(w.graph(o.seed), None, Some(w.recorded))
  // A scaled-down warm-up gets the engine's cutoff scaled alike, so that it
  // runs the same code paths as the full-size query.
  private val warmup =
    if (w.warmupScale == 1) input
    else new Input(w.graph(o.seed, w.warmupScale), Some(DefaultCutoff / w.warmupScale), None)

  private var attempted = 0
  private var failed = 0

  /** One repetition's measurements. */
  final case class Rep(setupNs: Long, queryNs: Long, heapMb: Double, answer: Answer,
                       counters: Option[CoreCounters], run: Int)

  private def fail(msgs: Seq[String]): Unit = if (msgs.nonEmpty) {
    failed += 1
    msgs.foreach(x => say(s"CHECK FAILED: $x"))
  }

  /** A fresh engine on ``in``, set up and timed; then the query unless
    * ``setupOnly``. Tracing is on iff ``tracer`` is given. A query that
    * throws or fails a check counts as failed and yields no Rep.
    */
  private def rep(in: Input, tracer: Option[Tracer], setupOnly: Boolean = false,
                  isWarmup: Boolean = false): Option[Rep] = {
    def sp[A](name: String)(f: => A): A = tracer.fold(f)(_.span(name)(f))
    attempted += 1
    var engine: SparkCoreEngine = null
    try {
      System.gc()
      val t0 = System.nanoTime()
      engine = sp("setup") {
        val df = sp("graph.input")(inputFrame(spark, in.rows))
        val e  = sp("graph.engine")(in.cutoff.fold(new SparkCoreEngine(df))(new SparkCoreEngine(df, _)))
        sp("graph.stats") { e.n; e.m }
        e
      }
      val setupNs = System.nanoTime() - t0
      val f0 =
        if (engine.n == in.g.n && engine.m == in.g.m) Nil
        else Seq(s"engine n=${engine.n} m=${engine.m} but the edge array has n=${in.g.n} m=${in.g.m}")
      if (setupOnly) {
        say(f"setup-only setup_s=${setupNs / 1e9}%.4f")
        fail(f0)
        return Option.when(f0.isEmpty)(Rep(setupNs, 0L, 0.0, null, None, 0))
      }
      val traced = tracer.map(new TracedEngine(engine, _))
      System.gc()
      val t1 = System.nanoTime()
      val a = sp("query")(query(w.query, traced.getOrElse(engine)))
      val queryNs = System.nanoTime() - t1
      val heap = liveHeapMb()
      say(f"rep setup_s=${setupNs / 1e9}%.4f query_s=${queryNs / 1e9}%.4f heap_live_mb=$heap%.1f" +
          (if (isWarmup) " (warm-up)" else "") + (if (tracer.nonEmpty) " (traced)" else ""))
      val f = f0 ++ check(w.query, in.g, a, in.rec)
      fail(f)
      Option.when(f.isEmpty)(Rep(setupNs, queryNs, heap, a, traced.map(_.counters), tracer.fold(0)(_.run)))
    } catch {
      case e: Exception =>
        fail(Seq(s"query threw $e"))
        None
    } finally {
      if (engine != null) engine.release()
    }
  }

  /** Repetitions until ``seconds`` have passed (at least ``min``). */
  private def loop(min: Int)(body: Int => Unit): Unit = {
    val deadline = System.nanoTime() + o.seconds * 1000000000L
    var i = 0
    while (i < min || System.nanoTime() < deadline) { body(i); i += 1 }
  }

  /** Set-up times of ``reps`` plus set-up-only repetitions up to MinSetups. */
  private def setupSamples(reps: Seq[Rep]): Seq[Double] = {
    val extra = Iterator.continually(rep(input, None, setupOnly = true))
      .take(math.max(0, MinSetups - reps.size)).flatten.toSeq
    (reps ++ extra).map(_.setupNs / 1e9)
  }

  def apply(): Boolean = {
    say(s"workload=${w.name} seed=${o.seed} query=${w.query} spark=${sc.master} " +
        s"shuffle.partitions=$ShufflePartitions maxHeapMb=${Runtime.getRuntime.maxMemory >> 20}")
    try {
      inputOk = fingerprint().isEmpty
      for (_ <- 1 to w.warmupReps) rep(warmup, None, isWarmup = true)
      if (o.trace) traced() else untraced()
    } finally spark.stop()
    correct
  }

  private var inputOk = false
  private def correct: Boolean = inputOk && failed == 0

  /** Prints the graph's fingerprint; returns its mismatches with the record. */
  private def fingerprint(): Seq[String] = {
    val g = input.g
    say(f"fingerprint ${w.name} seed=${o.seed} n=${g.n} m=${g.m} edgehash=${g.hash}%016x")
    val f = input.rec.toSeq.flatMap(r => Seq(
      Option.when(g.n != r.n)(s"n=${g.n} but ${r.n} was recorded"),
      Option.when(g.m != r.m)(s"m=${g.m} but ${r.m} was recorded"),
      Option.when(o.seed == Workload.defaultSeed && g.hash != r.hash)(
        f"edge hash ${g.hash}%016x but ${r.hash}%016x was recorded")).flatten)
    f.foreach(x => say(s"FINGERPRINT MISMATCH: $x"))
    f
  }

  private def answerLine(reps: Seq[Rep]): Unit = reps.headOption.foreach { r =>
    val a = r.answer
    say(f"answer ${w.name} seed=${o.seed} xy=${a.xy} rho=${a.density}%.9f E=${a.m} " +
        s"|S|=${a.s.length} |T|=${a.t.length}")
  }

  private def untraced(): Unit = {
    val reps = ArrayBuffer.empty[Rep]
    loop(1)(_ => reps ++= rep(input, None))
    answerLine(reps.toSeq)
    val q = reps.map(_.queryNs / 1e9)
    val setup = setupSamples(reps.toSeq)
    say(f"setup_s  median=${median(setup)}%.4f max=${setup.maxOption.getOrElse(0.0)}%.4f samples=${setup.size}")
    say(f"query_s  median=${median(q)}%.4f max=${q.maxOption.getOrElse(0.0)}%.4f samples=${q.size} " +
        "(too few samples for a percentile above the median)")
    say(f"heap_live_mb median=${median(reps.map(_.heapMb))}%.1f")
    say(f"rho=${median(reps.map(_.answer.density))}%.6f  fail_ratio=$failed/$attempted")
    println(resultJson(correct, attempted, failed, Seq(
      ("setup_s", median(setup), "s"),
      ("query_s", median(q), "s"),
      ("rho", median(reps.map(_.answer.density)), "edges/vertex"),
      ("heap_live_mb", median(reps.map(_.heapMb)), "MB"))))
  }

  /** Alternates traced and plain repetitions; per-layer numbers come from
    * the traced ones, the tracing overhead from comparing the two.
    */
  private def traced(): Unit = {
    attempted += 1
    if (!SelfTest.decoratorTransparent(spark, quiet = true))
      fail(Seq("the tracing decorator changed the engine's behaviour"))
    val rec = new SparkRecorder
    sc.addSparkListener(rec)
    val tracer = new Tracer(sc)
    val tracedReps = ArrayBuffer.empty[Rep]
    val plainReps = ArrayBuffer.empty[Rep]
    loop(2) { i =>
      if (i % 2 == 0) { tracer.run += 1; tracedReps ++= rep(input, Some(tracer)) }
      else plainReps ++= rep(input, None)
    }
    answerLine(tracedReps.toSeq)
    spark.stop() // drains the listener queue
    val spans = tracer.spans
    val layers = tracedReps.map(r => Layers(r, spans.filter(_.run == r.run), rec, tracer.epochToNanoNs))
    val allSpans = spans ++ layers.flatMap(l => l.setupSpark.jobSpans ++ l.querySpark.jobSpans)
    writeFile(Paths.get(o.out, s"spans-${w.name}-seed${o.seed}.json").toString,
      allSpans.sortBy(s => (s.run, s.startNs)).map(s =>
        s"""{"id": ${s.id}, "parent": ${s.parent}, "run": ${s.run}, "name": "${s.name}", """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}}""").mkString("[\n", ",\n", "\n]\n"))
    val overhead =
      if (plainReps.isEmpty) 0.0
      else median(tracedReps.map(_.queryNs / 1e9)) / median(plainReps.map(_.queryNs / 1e9)) - 1
    def med(f: Layers => Double): Double = median(layers.map(f))
    def byQuery(q: Query)(f: Layers => Double): Double = if (w.query == q) med(f) else 0.0
    val metrics = Seq(
      ("graph.canonicalize_s", med(_.canonicalizeS), "s"),
      ("graph.stats_s", med(_.statsS), "s"),
      ("graph.full_sub_s", med(_.c.fullSubNs / 1e9), "s"),
      ("core.calls", med(_.c.calls.toDouble), "count"),
      ("core.calls_warm", med(_.c.warm.toDouble), "count"),
      ("core.calls_empty", med(_.c.empty.toDouble), "count"),
      ("core.useful_ratio", med(l => if (l.c.calls == 0) 0 else (l.c.calls - l.c.empty).toDouble / l.c.calls), "ratio"),
      ("core.busy_s", med(_.c.busyNs / 1e9), "s"),
      ("core.edges_out", med(_.c.edgesOut.toDouble), "count"),
      ("core.alloc_mb", med(_.c.allocBytes / 1048576.0), "MB"),
      ("core.first_call_s", med(_.c.firstCallNs / 1e9), "s"),
      ("core.sub_calls", med(_.c.subCalls.toDouble), "count"),
      ("core.sub_s", med(_.c.subNs / 1e9), "s"),
      ("spark.setup_jobs", med(_.setupSpark.jobs.toDouble), "count"),
      ("spark.jobs", med(_.querySpark.jobs.toDouble), "count"),
      ("spark.stages", med(_.querySpark.stages.toDouble), "count"),
      ("spark.tasks", med(_.querySpark.tasks.toDouble), "count"),
      ("spark.job_wall_s", med(_.querySpark.jobWallMs / 1e3), "s"),
      ("spark.task_run_s", med(_.querySpark.taskRunMs / 1e3), "s"),
      ("spark.shuffle_write_mb", med(_.querySpark.shuffleWriteBytes / 1048576.0), "MB"),
      ("spark.shuffle_read_mb", med(_.querySpark.shuffleReadBytes / 1048576.0), "MB"),
      ("spark.result_mb", med(_.querySpark.resultBytes / 1048576.0), "MB"),
      ("exact.probes", med(_.r.answer.probes.toDouble), "count"),
      ("exact.flows", med(_.r.answer.flows.toDouble), "count"),
      ("flow.nodes_total", med(_.r.answer.flowNodesTotal.toDouble), "count"),
      ("flow.nodes_max", med(_.r.answer.flowNodesMax.toDouble), "count"),
      ("exact.self_s", byQuery(Query.CoreExact)(_.querySelfS), "s"),
      ("approx.xy", byQuery(Query.CoreApprox)(_.r.answer.xy.toDouble), "count"),
      ("approx.self_s", byQuery(Query.CoreApprox)(_.querySelfS), "s"),
      ("traced.query_s", med(_.r.queryNs / 1e9), "s"),
      ("traced.setup_s", med(_.r.setupNs / 1e9), "s"),
      ("trace.overhead_ratio", overhead, "ratio"),
      ("traced.heap_live_mb", med(_.r.heapMb), "MB"))
    metrics.foreach { case (k, v, u) => say(f"$k%-24s ${num(v)} $u") }
    say(s"traced=${tracedReps.size} plain=${plainReps.size} fail_ratio=$failed/$attempted spans=${allSpans.size}")
    println(resultJson(correct, attempted, failed, metrics))
  }

  /** Per-layer numbers of one traced repetition, derived from its spans. */
  final case class Layers(r: Rep, spans: Seq[Span], rec: SparkRecorder, epochToNanoNs: Long) {
    val c: CoreCounters = r.counters.get
    private def one(name: String): Span = spans.find(_.name == name).get
    private val setup = one("setup")
    private val query = one("query")
    val setupSpark: SparkTotals = SparkTotals.under(setup, spans, rec, epochToNanoNs)
    val querySpark: SparkTotals = SparkTotals.under(query, spans, rec, epochToNanoNs)

    // The first action of the stats call (its count) materializes the
    // cached canonical edge set, so its jobs are charged to canonicalization.
    private val statsSpan = one("graph.stats")
    private val firstActionNs = {
      val jobs = rec.jobs.values.filter(_.span == statsSpan.id).toSeq.sortBy(_.startMs)
      jobs.headOption.fold(0L) { first =>
        (jobs.filter(_.exec == first.exec).map(_.endMs).max - first.startMs) * 1000000L
      }
    }
    val canonicalizeS: Double = (one("graph.engine").durNs + firstActionNs) / 1e9
    val statsS: Double = (statsSpan.durNs - firstActionNs) / 1e9

    /** Query time not covered by its direct child spans (engine calls). */
    val querySelfS: Double = (query.durNs - spans.filter(_.parent == query.id).map(_.durNs).sum) / 1e9
  }
}
