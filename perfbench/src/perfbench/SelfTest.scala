package perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{CoreEngine, CoreHandle, CoreSub, LocalCoreEngine, SparkCoreEngine}
import repro.exact.DDSExact
import repro.graph.LocalDigraph

/** Pass-through ``CoreEngine`` that counts calls and output edges and
  * records warm handles it did not itself return (which the inner engine
  * would ignore). It returns the inner engine's handles unchanged, so it
  * cannot itself change the engine's behaviour.
  */
private final class CountingEngine(inner: CoreEngine) extends CoreEngine {
  private val mine = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[CoreHandle, java.lang.Boolean])
  var calls, edgesOut, foreignWarm = 0L
  def n: Long = inner.n
  def m: Long = inner.m
  def fullSub(): CoreSub = inner.fullSub()
  def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = {
    if (warm.exists(h => !mine.contains(h))) foreignWarm += 1
    calls += 1
    val r = inner.core(x, y, warm)
    r.foreach { h => mine.add(h); edgesOut += h.m }
    r
  }
}

/** The mistake ``TracedEngine`` guards against: wrapping handles without
  * unwrapping them on the way back in. Used as the check's negative control.
  */
private final class WrappingEngine(inner: CoreEngine) extends CoreEngine {
  private final class W(val h: CoreHandle) extends CoreHandle {
    def x: Int = h.x; def y: Int = h.y
    def sSize: Long = h.sSize; def tSize: Long = h.tSize; def m: Long = h.m
    def sub(): CoreSub = h.sub()
    def candidate(): repro.core.Candidate = h.candidate()
  }
  def n: Long = inner.n
  def m: Long = inner.m
  def fullSub(): CoreSub = inner.fullSub()
  def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] =
    inner.core(x, y, warm).map(new W(_))
}

/** Checks that the benchmark measures the program it claims to:
  *  - the tracing decorator leaves answers, ``core.calls`` and
  *    ``core.edges_out`` unchanged and never hands an engine a foreign warm
  *    handle, on the local engine, on ``SparkCoreEngine`` below its cutoff
  *    and on ``SparkCoreEngine`` forced onto Spark rounds;
  *  - the recorded CoreExact optimum of ``exact-pl`` agrees with DC.
  */
object SelfTest {

  private final case class Outcome(a: Answer, calls: Long, edgesOut: Long, foreignWarm: Long)

  private def outcome(w: Workload, engine: CoreEngine, wrap: CoreEngine => CoreEngine): Outcome = {
    val counting = new CountingEngine(engine)
    try {
      val a = Bench.query(w.query, wrap(counting))
      Outcome(a, counting.calls, counting.edgesOut, counting.foreignWarm)
    } finally engine match {
      case e: SparkCoreEngine => e.release()
      case _                  => ()
    }
  }

  private def same(a: Outcome, b: Outcome): Boolean =
    a.calls == b.calls && a.edgesOut == b.edgesOut && a.a.xy == b.a.xy && a.a.m == b.a.m &&
      a.a.s.sameElements(b.a.s) && a.a.t.sameElements(b.a.t)

  /** True iff decorated and plain engines behave identically on small graphs
    * (and the negative control is detected).
    */
  def decoratorTransparent(spark: SparkSession, quiet: Boolean, sparkRounds: Boolean = false): Boolean = {
    val small = Gen.powerLaw(7L, 300, 2500)
    val pairs = small.edges.toSeq.map(e => (e >>> 32, e & 0xFFFFFFFFL))
    // pure Spark rounds cost ~0.2 s per round, hence a smaller graph there
    val tiny = Bench.rows(Gen.powerLaw(7L, 40, 200))
    val engines: Seq[(String, () => CoreEngine)] = Seq(
      "local" -> (() => new LocalCoreEngine(LocalDigraph.fromPairs(pairs))),
      "spark-delegate" -> (() => new SparkCoreEngine(Bench.inputFrame(spark, Bench.rows(small))))) ++
      (if (sparkRounds) Seq("spark-rounds" -> (() =>
        new SparkCoreEngine(Bench.inputFrame(spark, tiny), localCutoff = 0L))) else Nil)
    val tracer = new Tracer(spark.sparkContext)
    val results = for {
      w <- Seq(Workload.byName("approx-spark"), Workload.byName("exact-pl"))
      (name, mk) <- engines
    } yield {
      val plain = outcome(w, mk(), identity)
      val traced = outcome(w, mk(), new TracedEngine(_, tracer))
      val broken = outcome(w, mk(), new WrappingEngine(_))
      val ok = same(plain, traced) && plain.foreignWarm == 0 && traced.foreignWarm == 0 &&
        broken.foreignWarm > 0
      if (!quiet || !ok)
        Bench.say(s"selftest decorator ${w.query} on $name: calls=${plain.calls}/${traced.calls} " +
          s"edges_out=${plain.edgesOut}/${traced.edgesOut} foreign warm=${plain.foreignWarm}/" +
          s"${traced.foreignWarm} (negative control ${broken.foreignWarm}) -> ${if (ok) "ok" else "FAILED"}")
      ok
    }
    results.forall(identity)
  }

  /** CoreExact's recorded optimum on exact-pl at the default seed vs DC. */
  private def dcAgrees(spark: SparkSession): Boolean = {
    val w = Workload.byName("exact-pl")
    val g = w.graph(Workload.defaultSeed)
    val engine = new SparkCoreEngine(Bench.inputFrame(spark, Bench.rows(g)))
    val t0 = System.nanoTime()
    val r = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.DC))
    val f = Checks.exact(g, w.recorded.xy, r.best.s, r.best.t, r.best.m, r.density, None, w.recorded.opt)
    Bench.say(f"selftest DC on exact-pl seed ${Workload.defaultSeed}: rho=${r.density}%.9f " +
      f"E=${r.best.m} |S|=${r.best.s.length} |T|=${r.best.t.length} probes=${r.probes} " +
      f"(${(System.nanoTime() - t0) / 1e9}%.1f s) recorded=${w.recorded.opt} -> " +
      (if (f.isEmpty) "ok" else f.mkString("FAILED: ", "; ", "")))
    f.isEmpty
  }

  def run(o: Bench.Opts): Boolean = {
    val spark = Bench.session(o.threads, o.out)
    try dcAgrees(spark) & decoratorTransparent(spark, quiet = false, sparkRounds = true)
    finally spark.stop()
  }
}
