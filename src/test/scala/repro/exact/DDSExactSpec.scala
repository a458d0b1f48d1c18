package repro.exact

import repro.{SparkSpec, TestGraphs}
import repro.core.{CoreEngine, CoreHandle, LocalCoreEngine, SparkCoreEngine}
import repro.graph.LocalDigraph
import repro.ref.BruteForce

/** Exact DDS vs exhaustive ground truth, across all three modes. */
class DDSExactSpec extends SparkSpec {

  private def localEngine(pairs: Seq[(Long, Long)]) =
    new LocalCoreEngine(LocalDigraph.fromPairs(pairs))

  private def runMode(pairs: Seq[(Long, Long)], mode: DDSExact.Mode): DDSExact.Result =
    DDSExact.run(localEngine(pairs), DDSExact.Config(mode))

  // ---- hand-solvable graphs, all modes ----
  for (mode <- Seq(DDSExact.Mode.Baseline, DDSExact.Mode.DC, DDSExact.Mode.CoreExact)) {
    val name = mode.toString

    test(s"$name: single edge") {
      assert(math.abs(runMode(Seq((1L, 2L)), mode).density - 1.0) < 1e-9)
    }

    test(s"$name: directed star k=9 gives ρ=3") {
      val r = runMode((1 to 9).map(i => (0L, i.toLong)), mode)
      assert(math.abs(r.density - 3.0) < 1e-9)
      assert(r.best.sSize === 1 && r.best.tSize === 9)
    }

    test(s"$name: bidirected K4 gives ρ=3") {
      val pairs = for (i <- 0 until 4; j <- 0 until 4 if i != j) yield (i.toLong, j.toLong)
      assert(math.abs(runMode(pairs, mode).density - 3.0) < 1e-9)
    }

    test(s"$name: complete bipartite 4x2 gives ρ=sqrt(8)") {
      val pairs = for (i <- 0 until 4; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
      assert(math.abs(runMode(pairs, mode).density - math.sqrt(8.0)) < 1e-9)
    }

    test(s"$name: empty graph gives ρ=0") {
      assert(runMode(Seq.empty, mode).density === 0.0)
    }
  }

  // ---- random graphs vs brute force ----
  for (seed <- 1 to 20) {
    test(s"CoreExact matches brute force on random graph (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(8, 6 + 2 * (seed % 8), seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g)
        val r = runMode(pairs, DDSExact.Mode.CoreExact)
        assert(math.abs(r.density - opt.density) < 1e-9,
          s"got ${r.density} expected ${opt.density} pairs=$pairs")
      }
    }
  }

  for (seed <- 1 to 12) {
    test(s"DC matches brute force on random graph (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(8, 8 + 2 * (seed % 6), 1000 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g).density
        val r = runMode(pairs, DDSExact.Mode.DC)
        assert(math.abs(r.density - opt) < 1e-9, s"got ${r.density} expected $opt")
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"Baseline matches brute force on random graph (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(7, 10, 2000 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g).density
        val r = runMode(pairs, DDSExact.Mode.Baseline)
        assert(math.abs(r.density - opt) < 1e-9)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"all three modes agree on a denser random graph (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(9, 30, 3000 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val b = runMode(pairs, DDSExact.Mode.Baseline).density
        val d = runMode(pairs, DDSExact.Mode.DC).density
        val c = runMode(pairs, DDSExact.Mode.CoreExact).density
        assert(math.abs(b - d) < 1e-9)
        assert(math.abs(b - c) < 1e-9)
      }
    }
  }

  for (seed <- 1 to 24) {
    test(s"every mode hits the brute-force optimum exactly, each probe ending in a flow (seed=$seed)") {
      // random and skewed (hub) graphs on at most 12 vertices
      val pairs =
        if (seed % 2 == 0) TestGraphs.randomPairs(8 + seed % 5, 12 + seed, 5000 + seed)
        else TestGraphs.skewedPairs(12, 14 + seed, 5000 + seed)
      val opt = BruteForce.dds(LocalDigraph.fromPairs(pairs))
      for (mode <- Seq(DDSExact.Mode.Baseline, DDSExact.Mode.DC, DDSExact.Mode.CoreExact)) {
        val r = runMode(pairs, mode)
        assert(!r.best.denserThan(opt) && !opt.denserThan(r.best), s"$mode: ${r.best.m} edges vs ${opt.m}")
        // every probe ends with a flow that finds no higher level
        assert(r.flows >= r.probes, s"$mode")
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"Baseline probes every reduced ratio p/q with p, q <= n exactly once (seed=$seed)") {
      @annotation.tailrec
      def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
      val engine = localEngine(TestGraphs.randomPairs(6 + 3 * seed, 10 * seed, 4000 + seed))
      val n = engine.n
      val ratios = (1L to n).map(p => (1L to n).count(q => gcd(p, q) == 1)).sum
      assert(DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.Baseline)).probes === ratios, s"n=$n")
    }
  }

  test("DC probes far fewer ratios than Baseline") {
    val pairs = TestGraphs.randomPairs(12, 50, seed = 4242)
    val b = runMode(pairs, DDSExact.Mode.Baseline)
    val d = runMode(pairs, DDSExact.Mode.DC)
    assert(d.probes < b.probes, s"DC=${d.probes} Baseline=${b.probes}")
  }

  test("CoreExact flow networks are no larger than DC's largest") {
    val pairs = TestGraphs.skewedPairs(40, 250, seed = 5151)
    val d = runMode(pairs, DDSExact.Mode.DC)
    val c = runMode(pairs, DDSExact.Mode.CoreExact)
    assert(math.abs(d.density - c.density) < 1e-9)
    if (c.flowNodes.nonEmpty && d.flowNodes.nonEmpty)
      assert(c.flowNodes.max <= d.flowNodes.max)
  }

  test("CoreExact reports the max-x*y core it seeded from") {
    val pairs = for (i <- 0 until 4; j <- 0 until 4 if i != j) yield (i.toLong, j.toLong)
    val r = runMode(pairs, DDSExact.Mode.CoreExact)
    assert(r.maxXY === Some((3, 3)))
  }

  test("wall budget marks DNF but still returns a valid candidate") {
    val pairs = TestGraphs.skewedPairs(60, 400, seed = 6161)
    val r = DDSExact.run(localEngine(pairs), DDSExact.Config(DDSExact.Mode.Baseline, wallBudgetMs = 0))
    assert(r.dnf)
    assert(r.density >= 1.0 - 1e-12) // at least the seed edge
  }

  test("Baseline checks its budget before enumerating ratios (20k-leaf star)") {
    // ~0.61·n² candidate ratios: they must be streamed, not built up front
    val star = (1 to 20000).map(i => (0L, i.toLong))
    val t0 = System.nanoTime()
    val r = DDSExact.run(localEngine(star), DDSExact.Config(DDSExact.Mode.Baseline, wallBudgetMs = 1))
    val ms = (System.nanoTime() - t0) / 1000000L
    assert(r.dnf)
    assert(ms < 20000, s"took ${ms}ms")
  }

  test("best candidate's edge count is consistent with its sets") {
    val pairs = TestGraphs.randomPairs(9, 28, seed = 7777)
    val g = LocalDigraph.fromPairs(pairs)
    val r = runMode(pairs, DDSExact.Mode.CoreExact)
    val (s, t) = (r.best.s.toSet, r.best.t.toSet)
    val m = TestGraphs.edgePairs(g).count { case (u, v) => s(u) && t(v) }
    assert(m === r.best.m)
  }

  test("CoreExact's work on a fixed skewed graph is pinned") {
    // The answer was read from the Dinic that started every network from
    // zero flow on its textbook arcs (no folded path, no preloaded flow), the
    // work from the integer Stern–Brocot walk with each probe's Dinkelbach
    // started from the highest-level known pair. A cheaper min-cut must not
    // change how many ratios and networks the search visits, nor its answer.
    val r = runMode(TestGraphs.skewedPairs(2000, 12000, seed = 4040), DDSExact.Mode.CoreExact)
    assert((r.probes, r.flows, r.flowNodes.map(_.toLong).sum) === ((37, 75, 9766L)))
    assert(r.best.s.toSeq === (1L to 12L))
    assert((r.best.tSize, r.best.t.sum, r.best.m) === ((90, 92898L, 645L)))
    assert(r.maxXY === Some((60, 4)))
  }

  /** Forwards to ``inner``, except that ``fullSub`` throws. */
  private final class NoFullSub(inner: CoreEngine) extends CoreEngine {
    def n: Long = inner.n
    def m: Long = inner.m
    def fullSub(): LocalDigraph = throw new UnsupportedOperationException("fullSub")
    def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = inner.core(x, y, warm)
  }

  test("CoreExact never collects the whole graph: same answer and work without fullSub") {
    val pairs = TestGraphs.skewedPairs(300, 2500, seed = 77)
    val g = LocalDigraph.fromPairs(pairs)
    def work(r: DDSExact.Result) =
      (r.best.s.toSeq, r.best.t.toSeq, r.best.m, r.probes, r.flows, r.flowNodes, r.maxXY, r.dnf)
    val plain = work(DDSExact.run(new LocalCoreEngine(g)))
    assert(work(DDSExact.run(new NoFullSub(new LocalCoreEngine(g)))) === plain)
    // a third of m: Spark rounds above the cutoff, where fullSub would be a collect
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), g.m / 3L)
    try assert(work(DDSExact.run(new NoFullSub(engine))) === plain) finally engine.release()
    assert(DDSExact.run(new NoFullSub(new LocalCoreEngine(LocalDigraph.fromPairs(Seq.empty)))).density === 0.0)
  }

  // ---- Spark engine parity ----
  for (seed <- 1 to 4) {
    test(s"Spark engine CoreExact equals local engine (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(10, 35, 9000 + seed)
      val rLocal = runMode(pairs, DDSExact.Mode.CoreExact)
      val opt = BruteForce.dds(LocalDigraph.fromPairs(pairs)).density
      // default cutoff (whole graph on the driver), and a third of m (Spark
      // rounds above the cutoff, cached local cores below it). Each engine is
      // built when it runs: two engines of one frame share its cache, so a
      // release by one would uncache the frame the other still reads.
      val df = TestGraphs.df(spark, pairs)
      for (cutoff <- Seq(None, Some(LocalDigraph.fromPairs(pairs).m / 3L))) {
        val engine = cutoff.fold(new SparkCoreEngine(df))(new SparkCoreEngine(df, _))
        val rSpark = try DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact)) finally engine.release()
        assert(math.abs(rSpark.density - rLocal.density) < 1e-9)
        assert(math.abs(rSpark.density - opt) < 1e-9)
      }
    }
  }

  // ---- adversarial inputs through every engine ----
  for ((name, pairs, rho) <- TestGraphs.adversarial; mode <- Seq(DDSExact.Mode.CoreExact, DDSExact.Mode.DC)) {
    test(s"adversarial input through every engine: $mode, $name") {
      val g = LocalDigraph.fromPairs(pairs)
      val df = TestGraphs.df(spark, pairs)
      val ref = DDSExact.run(new LocalCoreEngine(g), DDSExact.Config(mode))
      for ((engine, cutoff) <- Seq(("Spark, cutoff 0", Some(0L)), ("Spark, default cutoff", None))) {
        val e = cutoff.fold(new SparkCoreEngine(df))(new SparkCoreEngine(df, _))
        val r = try DDSExact.run(e, DDSExact.Config(mode)) finally e.release()
        assert(r.density === ref.density, engine)
        assert(r.best.s.toSeq === ref.best.s.toSeq, engine)
        assert(r.best.t.toSeq === ref.best.t.toSeq, engine)
      }
      for (expected <- rho) assert(ref.density === expected)
      if (g.n <= 16) assert(math.abs(ref.density - BruteForce.dds(g).density) < 1e-9)
    }
  }

  test("Spark engine on the toy graph matches brute force") {
    val toyDf = repro.SynthGraphs.toy(spark)
    val engine = new SparkCoreEngine(toyDf)
    val r = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact))
    engine.release()
    val g = LocalDigraph.fromEdges(repro.graph.DigraphOps.canonicalize(toyDf))
    val opt = BruteForce.dds(g).density // 9/sqrt(15): triangle + feeders 4,5
    assert(math.abs(r.density - opt) < 1e-9)
    assert(math.abs(opt - 9.0 / math.sqrt(15.0)) < 1e-9)
  }
}
