package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{array, col, count, explode, lit, struct}
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.approx.CoreApprox
import repro.exact.DDSExact
import repro.SparkSpec.jobShapes
import repro.graph.{DigraphOps, EdgeScan, LocalDigraph, PairDegrees}
import scala.collection.mutable
import scala.util.Random

/** The Spark DataFrame peeling vs the reference peeler, plus DuckDB checks,
  * and the engines' known cores: the start rule, the 8·m budget and the
  * order in which cores are dropped.
  */
class XYCoreSparkSpec extends SparkSpec {
  import spark.implicits._

  /** The degrees a peel starts from: the whole graph's, or a superset core's. */
  private def from(base: DataFrame, warm: Option[Candidate]): PairDegrees =
    warm.fold(EdgeScan.allDegrees(base))(w => EdgeScan.degrees(base, w.s, w.t))

  /** A core XYCore.peel returned, wherever it was finished, as an answer. */
  private def answer(core: Either[PairDegrees, LocalDigraph]): Candidate =
    core.fold(d => Candidate(d.s, d.t, d.m), Candidate.of)

  /** XYCore.peel's core, wherever it was finished. */
  private def peel(base: DataFrame, x: Int, y: Int, warm: Option[Candidate] = None,
                   localCutoff: Long = 0L): Candidate =
    answer(XYCore.peel(base, x, y, Left(from(base, warm)), localCutoff))

  /** The edges of a core as a DataFrame plan, for the DuckDB checks. */
  private def coreEdges(base: DataFrame, core: Candidate): DataFrame =
    if (core.isEmpty) base.limit(0) else TestGraphs.pairSubgraph(base, core.s, core.t)

  /** The edges of a core on the driver. */
  private def collectSub(base: DataFrame, core: Candidate): LocalDigraph =
    if (core.isEmpty) LocalDigraph.fromPairs(Nil) else LocalDigraph.fromEdges(base, core.s, core.t)

  /** Runs ``f`` on ``e``, then releases ``e`` if it is a Spark engine. Each
    * engine is built when it runs: two engines of one frame share its cache,
    * so a release by one would uncache the frame the other still reads.
    */
  private def using[E <: CoreEngine, A](e: E)(f: E => A): A =
    try f(e) finally e match { case s: SparkCoreEngine => s.release(); case _ => }

  private def peelBoth(pairs: Seq[(Long, Long)], x: Int, y: Int): (Candidate, Candidate) = {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val sparkCore = try peel(base, x, y) finally base.unpersist()
    val localCore = Candidate.of(LocalXYCore.peel(LocalDigraph.fromPairs(pairs), x, y))
    (sparkCore, localCore)
  }

  test("single edge [1,1]") {
    val (s, l) = peelBoth(Seq((1L, 2L)), 1, 1)
    assert(s.s.toSeq === l.s.toSeq)
    assert(s.t.toSeq === l.t.toSeq)
    assert(s.m === l.m.toLong)
  }

  test("single edge [2,1] is empty") {
    val (s, _) = peelBoth(Seq((1L, 2L)), 2, 1)
    assert(s.isEmpty)
  }

  test("empty input") {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, Seq.empty))
    assert(peel(base, 1, 1).isEmpty)
  }

  for (seed <- 1 to 10) {
    test(s"random graph: Spark peel equals reference for several (x,y) (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(12, 10 + 4 * seed, seed)
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val g = LocalDigraph.fromPairs(pairs)
      for ((x, y) <- Seq((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))) {
        val sc = peel(base, x, y)
        val lc = Candidate.of(LocalXYCore.peel(g, x, y))
        assert(sc.s.toSeq === lc.s.toSeq, s"[$x,$y] S")
        assert(sc.t.toSeq === lc.t.toSeq, s"[$x,$y] T")
        assert(sc.m === lc.m.toLong, s"[$x,$y] m")
      }
      base.unpersist()
    }
  }

  for (seed <- 1 to 4) {
    test(s"skewed graph: Spark peel equals reference (seed=$seed)") {
      val pairs = TestGraphs.skewedPairs(60, 300, seed)
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val g = LocalDigraph.fromPairs(pairs)
      for ((x, y) <- Seq((1, 1), (2, 2), (3, 1), (4, 2))) {
        val sc = peel(base, x, y)
        val lc = Candidate.of(LocalXYCore.peel(g, x, y))
        assert(sc.s.toSeq === lc.s.toSeq, s"[$x,$y]")
        assert(sc.t.toSeq === lc.t.toSeq, s"[$x,$y]")
        assert(sc.m === lc.m.toLong, s"[$x,$y]")
      }
      base.unpersist()
    }
  }

  for (seed <- 1 to 4) {
    test(s"hybrid local-cutoff peel equals pure-dataflow peel (seed=$seed)") {
      val pairs = TestGraphs.skewedPairs(50, 260, 600 + seed)
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      for ((x, y) <- Seq((1, 1), (2, 2), (3, 2))) {
        val pure = peel(base, x, y, None, localCutoff = 0L)
        val hybridLow = peel(base, x, y, None, localCutoff = 10L)
        val all = XYCore.peel(base, x, y, Left(from(base, None)), localCutoff = 1000000L)
        // a non-empty core under the cutoff comes back with its edges
        assert(all.isRight || pure.isEmpty, s"[$x,$y]")
        val hybridAll = answer(all)
        for (h <- Seq(hybridLow, hybridAll)) {
          assert(h.s.toSeq === pure.s.toSeq, s"[$x,$y]")
          assert(h.t.toSeq === pure.t.toSeq, s"[$x,$y]")
          assert(h.m === pure.m, s"[$x,$y]")
        }
      }
      base.unpersist()
    }
  }

  test("hybrid peel honours a warm start below the cutoff") {
    val pairs = TestGraphs.skewedPairs(40, 200, seed = 8)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val c11 = peel(base, 1, 1)
    val cold = peel(base, 2, 2)
    val warmSub = XYCore.peel(base, 2, 2, Left(from(base, Some(c11))), localCutoff = 1000000L)
      .getOrElse(fail("not finished on the driver"))
    val warm = Candidate.of(warmSub)
    assert(warm.s.toSeq === cold.s.toSeq && warm.t.toSeq === cold.t.toSeq && warm.m === cold.m)
    // the driver finish keeps the core's edges
    assert(TestGraphs.edgePairs(warmSub).toSet ===
      TestGraphs.edgePairs(collectSub(base, cold)).toSet)
    base.unpersist()
  }

  test("warm start from a superset core gives the same result") {
    val pairs = TestGraphs.skewedPairs(40, 200, seed = 9)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val c11 = peel(base, 1, 1)
    val cold = peel(base, 2, 2)
    val warm = peel(base, 2, 2, Some(c11))
    assert(warm.s.toSeq === cold.s.toSeq)
    assert(warm.t.toSeq === cold.t.toSeq)
    assert(warm.m === cold.m)
    base.unpersist()
  }

  test("warm start from an empty core short-circuits to empty") {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, Seq((1L, 2L)))).cache()
    val emptyCore = Candidate(Array.empty, Array.empty, 0L)
    assert(peel(base, 3, 2, Some(emptyCore)).isEmpty)
    base.unpersist()
  }

  test("invalid warm start is rejected") {
    // a bidirected triangle plus 3→4: the [1,1]-core has 7 edges, the [2,2]-core 6
    val pairs = Seq((1L, 2L), (2L, 1L), (2L, 3L), (3L, 2L), (1L, 3L), (3L, 1L), (3L, 4L))
    val engines: Seq[(String, () => CoreEngine)] = Seq(
      "local" -> (() => new LocalCoreEngine(LocalDigraph.fromPairs(pairs))),
      "spark, whole graph on the driver" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs))),
      "spark rounds" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)))
    for ((name, mk) <- engines) using(mk()) { e =>
      assert(e.core(1, 1).map(_.m) === Some(7L), name)
      val c22 = e.core(2, 2).get
      assert(c22.m === 6L, name)
      intercept[IllegalArgumentException](e.core(1, 1, Some(c22)))
      intercept[IllegalArgumentException](e.core(2, 1, Some(c22)))
    }
  }

  test("a warm handle from another engine is ignored") {
    val pairsA = TestGraphs.skewedPairs(60, 300, seed = 51)
    // another graph on other ids: A's cores say nothing about B's
    val pairsB = TestGraphs.skewedPairs(60, 300, seed = 52).map { case (u, v) => (u + 1000L, v + 1000L) }
    val kinds: Seq[(String, Seq[(Long, Long)] => CoreEngine)] = Seq(
      "local" -> (p => new LocalCoreEngine(LocalDigraph.fromPairs(p))),
      "spark rounds" -> (p => new SparkCoreEngine(TestGraphs.df(spark, p), localCutoff = 0L)),
      "spark, whole graph on the driver" -> (p => new SparkCoreEngine(TestGraphs.df(spark, p))))
    val at = Seq((2, 2), (3, 1))
    def shape(h: Option[CoreHandle]) =
      h.map(c => (c.sSize, c.tSize, c.m, c.candidate().s.toSeq, c.candidate().t.toSeq))
    // per kind: A's [1,1] handle and A's cores at ``at``
    val fromA = kinds.map { case (nameA, mk) =>
      using(mk(pairsA)) { a => // a handle outlives its engine's release
        val hA = a.core(1, 1)
        if (nameA == "spark rounds") assert(hA.collect { case p: PairCore => p.pair.isLeft } === Some(true))
        (nameA, hA, at.map { case (x, y) => shape(a.core(x, y)) })
      }
    }
    for ((nameB, mk) <- kinds) using(mk(pairsB)) { b =>
      for ((nameA, hA, shapesA) <- fromA; ((x, y), shapeA) <- at.zip(shapesA)) {
        val cold = b.core(x, y)
        assert(cold.nonEmpty && (shape(cold) !== shapeA), s"$nameB [$x,$y]")
        assert(shape(b.core(x, y, hA)) === shape(cold), s"$nameA handle into $nameB [$x,$y]")
      }
    }
  }

  test("core constraint verified via DuckDB: every S vertex has >= x out-edges into T") {
    val pairs = TestGraphs.skewedPairs(30, 150, seed = 11)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val x = 2; val y = 2
    val core = peel(base, x, y)
    if (core.nonEmpty) {
      val edges = coreEdges(base, core)
      val sDf = core.s.toSeq.toDF("id")
      val violators = TestGraphs.outDegrees(edges)
        .where($"deg" < x)
        .join(sDf, "id")
      Oracle.assertEquivalent(
        violators.select($"id"),
        // DuckDB recomputes the same violation query over the core edge set
        s"SELECT src AS id FROM core GROUP BY src HAVING COUNT(*) < $x",
        "core" -> edges)
      assert(violators.count() === 0)
    }
    base.unpersist()
  }

  test("coreEdges of the [1,1]-core matches DuckDB pair filter") {
    val pairs = TestGraphs.randomPairs(15, 50, seed = 12)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val core = peel(base, 1, 1)
    val sDf = core.s.toSeq.toDF("id")
    val tDf = core.t.toSeq.toDF("id")
    Oracle.assertEquivalent(
      coreEdges(base, core).select("src", "dst"),
      "SELECT src, dst FROM edges WHERE src IN (SELECT id FROM s) AND dst IN (SELECT id FROM t)",
      "edges" -> base, "s" -> sDf, "t" -> tDf)
    base.unpersist()
  }

  test("collectSub materializes exactly the core pair-subgraph") {
    val pairs = TestGraphs.randomPairs(15, 60, seed = 13)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val core = peel(base, 2, 1)
    val sub = collectSub(base, core)
    val lc = LocalXYCore.peel(LocalDigraph.fromPairs(pairs), 2, 1)
    assert(Candidate.of(sub).s.toSeq === Candidate.of(lc).s.toSeq)
    assert(Candidate.of(sub).t.toSeq === Candidate.of(lc).t.toSeq)
    assert(TestGraphs.edgePairs(sub).toSet === TestGraphs.edgePairs(lc).toSet)
    base.unpersist()
  }

  test("Spark engine with a cutoff below m: warm-started cores equal the local engine's") {
    val pairs = TestGraphs.skewedPairs(50, 260, seed = 19)
    val g = LocalDigraph.fromPairs(pairs)
    val local = new LocalCoreEngine(g)
    // Spark rounds above a third of m, cached local cores below it
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = local.m / 3L)
    try {
      assert(engine.n === local.n && engine.m === local.m)
      // each engine is warm-started from its own handles
      for ((name, e) <- Seq("spark" -> engine, "local, warm" -> new LocalCoreEngine(g))) {
        var rowWarm: Option[CoreHandle] = None // the [x-1,1]-core
        for (x <- 1 to 4) {
          var warm = rowWarm
          for (y <- 1 to 4) {
            val s = e.core(x, y, warm)
            val l = local.core(x, y)
            assert(s.map(h => (h.x, h.y, h.sSize, h.tSize, h.m)) === l.map(h => (h.x, h.y, h.sSize, h.tSize, h.m)),
              s"$name [$x,$y]")
            val cold = LocalXYCore.peel(g, x, y)
            for (sh <- s) {
              assert(sh.candidate().s.toSeq === Candidate.of(cold).s.toSeq, s"$name [$x,$y] S")
              assert(sh.candidate().t.toSeq === Candidate.of(cold).t.toSeq, s"$name [$x,$y] T")
              assert(TestGraphs.edgePairs(sh.sub()).toSet === TestGraphs.edgePairs(cold).toSet,
                s"$name [$x,$y] edges")
            }
            if (s.nonEmpty) warm = s
            if (y == 1 && s.nonEmpty) rowWarm = s
          }
        }
      }
    } finally engine.release()
  }

  /** Degree rows of an edge frame by a DataFrame plan: (id, side 0=src/1=dst, cnt). */
  private def degreeRows(cur: DataFrame): Array[(Long, Int, Long)] = {
    val exploded = cur.select(
      explode(array(
        struct(col("src").as("id"), lit(0).as("side")),
        struct(col("dst").as("id"), lit(1).as("side"))
      )).as("v")
    ).select(col("v.id").as("id"), col("v.side").as("side"))
    exploded
      .groupBy("id", "side")
      .agg(count(lit(1)).as("cnt"))
      .collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2)))
  }

  /** EdgeScan's pass over E(s,t) of ``frame`` against the DataFrame plan:
    * degrees and m against ``degreeRows(pairSubgraph)``, positions (read
    * back as ids) and the collect against ``pairSubgraph``.
    */
  private def checkScan(frame: DataFrame, s: Array[Long], t: Array[Long], what: String): Unit = {
    val sub = TestGraphs.pairSubgraph(frame, s, t)
    val rows = degreeRows(sub)
    def expected(side: Int, ids: Array[Long]): Seq[Long] = {
      val deg = rows.collect { case (id, `side`, c) => id -> c }.toMap
      ids.toSeq.map(deg.getOrElse(_, 0L))
    }
    val d = EdgeScan.degrees(frame, s, t)
    assert(d.s.toSeq === s.toSeq && d.t.toSeq === t.toSeq, what)
    assert(d.out.toSeq.map(_.toLong) === expected(0, s), s"$what out")
    assert(d.in.toSeq.map(_.toLong) === expected(1, t), s"$what in")
    assert(d.m === rows.collect { case (_, 0, c) => c }.sum, s"$what m")
    val subPairs = sub.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq.sorted
    val (ps, pt) = EdgeScan.positions(frame, s, t)
    assert(ps.toSeq.map(s(_)).zip(pt.toSeq.map(t(_))).sorted === subPairs, s"$what positions")
    assert(TestGraphs.edgePairs(LocalDigraph.fromEdges(frame, s, t)).sorted === subPairs, s"$what collect")
  }

  for ((name, pairs) <- Seq("random" -> TestGraphs.randomPairs(30, 120, seed = 41),
                            "skewed" -> TestGraphs.skewedPairs(60, 300, seed = 42))) {
    test(s"narrow passes equal degreeRows and pairSubgraph on random alive sets ($name graph)") {
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val m = base.count()
      // more partitions than edges: most tasks see no row
      val wide = base.repartition(m.toInt + 17).cache()
      assert(wide.queryExecution.toRdd.getNumPartitions > m)
      val ids = pairs.flatMap(p => Seq(p._1, p._2)).distinct
      val absent = Seq(-3L, 0L, 10000L, Long.MaxValue) // no edge touches these
      val rnd = new Random(43)
      def subset(p: Double): Array[Long] = (ids ++ absent).filter(_ => rnd.nextDouble() < p).sorted.toArray
      for ((frame, fname) <- Seq(base -> "base", wide -> "wide")) {
        // the pass over every edge finds exactly degreeRows' ids and counts
        val all = EdgeScan.allDegrees(frame)
        val rows = degreeRows(frame)
        def side(k: Int) = rows.filter(_._2 == k).sortBy(_._1).toSeq
        assert(all.s.toSeq.zip(all.out.map(_.toLong)) === side(0).map(r => (r._1, r._3)), fname)
        assert(all.t.toSeq.zip(all.in.map(_.toLong)) === side(1).map(r => (r._1, r._3)), fname)
        assert(all.m === m, fname)
        for (p <- Seq(0.3, 0.7, 1.0); k <- 1 to 2) checkScan(frame, subset(p), subset(p), s"$fname p=$p #$k")
      }
      checkScan(base, Array.empty, subset(1.0), "empty S")
      checkScan(base, subset(1.0), Array.empty, "empty T")
      checkScan(wide, absent.toArray, absent.toArray, "only absent ids")
      wide.unpersist()
      base.unpersist()
    }
  }

  test("a narrow round is one job with one stage; a call at its core runs none") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    base.count()
    var all: PairDegrees = null
    assert(jobShapes { all = EdgeScan.allDegrees(base) } === Seq(1))
    val d22 = XYCore.peel(base, 2, 2, Left(all)).swap.getOrElse(fail("not peeled in Spark"))
    assert(d22.m > 0)
    assert(jobShapes(EdgeScan.degrees(base, d22.s, d22.t)) === Seq(1))
    assert(jobShapes(LocalDigraph.fromEdges(base, d22.s, d22.t)) === Seq(1))
    assert(jobShapes(LocalDigraph.fromEdges(base)) === Seq(1))
    // started at its own core's degrees: the driver sees the fixpoint
    var warm: Either[PairDegrees, LocalDigraph] = null
    assert(jobShapes { warm = XYCore.peel(base, 2, 2, Left(d22)) } === Seq())
    assertSameDegrees(warm, d22, "warm")
    // no vertex of a canonical graph is below [1,1]: the whole graph's degrees are the fixpoint
    var c11: Candidate = null
    assert(jobShapes { c11 = answer(XYCore.peel(base, 1, 1, Left(all))) } === Seq())
    assert(c11.m === base.count())
    // a cold peel whose first round removes vertices: every round is narrow
    val shapes = jobShapes(peel(base, 3, 2))
    assert(shapes.size >= 2 && shapes.forall(_ == 1), shapes)
    base.unpersist()
  }

  test("the engine's cold [1,1] call above its cutoff runs no job after n") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)
    try {
      assert(engine.n === LocalDigraph.fromPairs(pairs).n.toLong)
      var c11: Option[CoreHandle] = None
      assert(jobShapes { c11 = engine.core(1, 1) } === Seq())
      assert(c11.map(_.m) === Some(engine.m))
    } finally engine.release()
  }

  test("fullSub within the cutoff is the digraph n collected: one instance, no job") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs))
    try {
      engine.n
      var first, second: LocalDigraph = null
      assert(jobShapes { first = engine.fullSub(); second = engine.fullSub() } === Seq())
      assert(first eq second)
      assert(first.m.toLong === engine.m)
    } finally engine.release()
  }

  test("within the cutoff, CoreApprox and CoreExact run no job after n and answer as the local engine does") {
    val pairs = TestGraphs.skewedPairs(200, 1500, seed = 48)
    val g = LocalDigraph.fromPairs(pairs)
    /** ``run`` on a fresh Spark engine within its cutoff, after its set-up. */
    def onSpark[A](run: CoreEngine => A): A = {
      val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs))
      try {
        engine.n
        var a: Option[A] = None
        assert(jobShapes { a = Some(run(engine)) } === Seq())
        a.get
      } finally engine.release()
    }
    def same(a: Candidate, b: Candidate): Boolean = a.s.toSeq == b.s.toSeq && a.t.toSeq == b.t.toSeq && a.m == b.m

    val (sa, la) = (onSpark(CoreApprox.run), CoreApprox.run(new LocalCoreEngine(g)))
    assert((sa.x, sa.y) === ((la.x, la.y)))
    assert(same(sa.candidate, la.candidate))
    assert(sa.result === la.result)

    val (se, le) = (onSpark(DDSExact.run(_)), DDSExact.run(new LocalCoreEngine(g)))
    assert(se.probes > 0 && se.flows > 0)
    assert(same(se.best, le.best))
    assert((se.probes, se.flows, se.flowNodes, se.maxXY, se.dnf) === ((le.probes, le.flows, le.flowNodes, le.maxXY, le.dnf)))
  }

  test("fullSub above the cutoff has the input's edges, without self-loops or duplicates") {
    val clean = TestGraphs.randomPairs(30, 120, seed = 50)
    val pairs = clean ++ clean.take(40) ++ (1 to 10).map(i => (i.toLong, i.toLong))
    val want = LocalDigraph.fromPairs(pairs)
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)
    try {
      val got = engine.fullSub()
      assert(got.m === clean.size && want.m === clean.size)
      assert(got.ids.toSeq === want.ids.toSeq)
      assert(TestGraphs.edgePairs(got).toSet === TestGraphs.edgePairs(want).toSet)
    } finally engine.release()
  }

  test("a peel whose drops all have degree 0 runs no job") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val d22 = XYCore.peel(base, 2, 2, Left(EdgeScan.allDegrees(base))).swap.getOrElse(fail("not peeled in Spark"))
    // ids no edge touches, on both sides: degree 0 in any pair
    val absent = Array(-3L, 0L, 10000L, Long.MaxValue)
    val padded = EdgeScan.degrees(base, (d22.s ++ absent).sorted, (d22.t ++ absent).sorted)
    assert(padded.m === d22.m)
    var core: Either[PairDegrees, LocalDigraph] = null
    assert(jobShapes { core = XYCore.peel(base, 2, 2, Left(padded)) } === Seq())
    assertSameDegrees(core, d22, "padded")
    base.unpersist()
  }

  test("a one-sided drop under the cutoff runs one job, the collect") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val all = EdgeScan.allDegrees(base)
    // [2,1] keeps every destination and drops the sources of out-degree 1
    assert(all.out.contains(1))
    var core: Either[PairDegrees, LocalDigraph] = null
    assert(jobShapes { core = XYCore.peel(base, 2, 1, Left(all), localCutoff = all.m - 1) } === Seq(1))
    assert(core.isRight)
    val cold = peel(base, 2, 1)
    val c = answer(core)
    assert(c.s.toSeq === cold.s.toSeq && c.t.toSeq === cold.t.toSeq && c.m === cold.m)
    base.unpersist()
  }

  test("a call at a core the engine returned starts from that core") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    val g = LocalDigraph.fromPairs(pairs)
    val engines: Seq[(String, () => CoreEngine)] = Seq(
      "local" -> (() => new LocalCoreEngine(g)),
      "spark, whole graph on the driver" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs))))
    for ((name, mk) <- engines) using(mk()) { e =>
      val first = e.core(2, 2).get
      assert(first.m < g.m, name)
      // peeling a core at its own (x,y) removes nothing, and the peel then
      // returns its input: the known core's digraph itself
      assert(e.core(2, 2).get.sub() eq first.sub(), name)
    }
  }

  test("a call at a core the engine peeled in Spark runs no job") {
    val pairs = TestGraphs.skewedPairs(60, 300, seed = 44)
    // sources of out-degree 1 and destinations of in-degree 1, which [2,2] drops
    val g = LocalDigraph.fromPairs(pairs)
    assert((0 until g.n).exists(v => g.outDeg(v) == 1) && (0 until g.n).exists(v => g.inDeg(v) == 1))
    using(new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)) { e =>
      assert(e.core(2, 2).nonEmpty)
      var again: Option[CoreHandle] = None
      assert(jobShapes { again = e.core(2, 2) } === Seq())
      assert(again.map(_.m) === Some(LocalXYCore.peel(g, 2, 2).m.toLong))
    }
  }

  /** A core's sides and edge count, for comparing answers across engines. */
  private def shape(c: Candidate): (Seq[Long], Seq[Long], Long) = (c.s.toSeq, c.t.toSeq, c.m)

  for ((name, pairs) <- Seq("random" -> TestGraphs.randomPairs(60, 600, seed = 61),
                            "skewed" -> TestGraphs.skewedPairs(200, 600, seed = 62))) {
    test(s"random call sequences answer as a cold peel and hold at most 8·m, past evictions ($name graph)") {
      val g = LocalDigraph.fromPairs(pairs)
      val m = g.m.toLong
      val cold = mutable.Map.empty[(Int, Int), Option[(Seq[Long], Seq[Long], Long)]]
      def want(x: Int, y: Int) =
        cold.getOrElseUpdate((x, y), Option(LocalXYCore.peel(g, x, y)).filter(_.nonEmpty).map(c => shape(Candidate.of(c))))
      // the largest x with a non-empty [x,1]-core, and for each x the largest y with a non-empty [x,y]-core
      val xMax = Iterator.from(1).takeWhile(want(_, 1).nonEmpty).size
      val yMax = (0 to xMax).map(x => if (x == 0) 0 else Iterator.from(1).takeWhile(want(x, _).nonEmpty).size)
      val engines: Seq[(String, () => PairEngine)] = Seq(
        "local" -> (() => new LocalCoreEngine(g)),
        "spark, cutoff 0" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)),
        "spark, cutoff m/4" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = m / 4)))
      for ((ename, mk) <- engines) using(mk()) { e =>
        val rnd = new Random(63)
        var i = 0
        var evictions = 0
        // until two calls have dropped cores; at cutoff 0 every core stays in
        // Spark and holds only its ids, so that takes some 200 calls
        while (evictions < 2) {
          i += 1
          assert(i <= 320, s"$ename: $evictions calls dropped a core in 320")
          // mostly non-empty cores, and the empty one just above each x's last
          val x = 1 + rnd.nextInt(xMax)
          val y = 1 + rnd.nextInt(yMax(x) + 1)
          val before = e.held
          val got = e.core(x, y)
          assert(got.map(h => shape(h.candidate())) === want(x, y), s"$ename call $i [$x,$y]")
          assert(e.held <= 8 * m, s"$ename call $i [$x,$y] held ${e.held}")
          // only a dropped core makes the held size fall
          if (e.held < before) evictions += 1
        }
      }
    }
  }

  test("a warm handle moves no start: answers, held sizes and jobs are those of calls without one") {
    // a small random part, and sources of out-degree 1 to 24, each into as
    // many destinations of its own: the [x,1]-cores differ for every x and
    // the ones at small x hold most of the graph, edges and ids alike, so
    // the known cores soon pass 8·m and drop some
    val pairs = TestGraphs.randomPairs(12, 40, seed = 64) ++
      (1 to 24).flatMap(k => (1 to k).map(j => (100L + k, 1000L + 100L * k + j)))
    val g = LocalDigraph.fromPairs(pairs)
    val m = g.m.toLong
    def cold(x: Int, y: Int) = Option(LocalXYCore.peel(g, x, y)).filter(_.nonEmpty).map(c => shape(Candidate.of(c)))
    val xMax = Iterator.from(1).takeWhile(cold(_, 1).nonEmpty).size
    val yMax = (0 to xMax).map(x => if (x == 0) 0 else Iterator.from(1).takeWhile(cold(x, _).nonEmpty).size)
    // another graph's cores, on other ids: its [1,1]-core is a valid handle at every call
    val foreign = new LocalCoreEngine(LocalDigraph.fromPairs(pairs.map { case (u, v) => (u + 100000L, v + 100000L) }))
    val foreignCores = Seq((1, 1), (2, 2), (3, 1)).flatMap { case (x, y) => foreign.core(x, y) }
    val kinds: Seq[(String, () => PairEngine)] = Seq(
      "local" -> (() => new LocalCoreEngine(g)),
      "spark, whole graph on the driver" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs))),
      "spark, cutoff 0" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)),
      "spark, cutoff m/4" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = m / 4)))
    // two engines of one frame share its cache: both are released after the last call
    for ((name, mk) <- kinds) using(mk()) { plain => using(mk()) { warmed =>
      plain.n; warmed.n // set-up jobs, before the per-call counts
      val rnd = new Random(65)
      // every handle either engine returned, dropped or not, and the other graph's
      val handles = mutable.ArrayBuffer.empty[CoreHandle] ++= foreignCores
      var evictions = 0
      for (i <- 1 to 80) {
        // x leans small, where the large cores are: the first drop comes
        // some 45 calls in
        val x = 1 + rnd.nextInt(1 + rnd.nextInt(xMax))
        val y = 1 + rnd.nextInt(yMax(x) + 1)
        val valid = handles.filter(h => h.x <= x && h.y <= y)
        val warm = valid(rnd.nextInt(valid.size))
        val before = plain.held
        var p, w: Option[CoreHandle] = None
        val plainJobs = jobShapes { p = plain.core(x, y) }
        val warmJobs = jobShapes { w = warmed.core(x, y, Some(warm)) }
        val what = s"$name call $i [$x,$y], handle [${warm.x},${warm.y}]"
        assert(p.map(h => shape(h.candidate())) === cold(x, y), what)
        assert(w.map(h => shape(h.candidate())) === cold(x, y), what)
        assert(warmed.held === plain.held, what)
        assert(warmJobs === plainJobs, what)
        if (plain.held < before) evictions += 1
        handles ++= p ++= w
      }
      // so some handles passed had been dropped
      assert(evictions >= 2, name)
    } }
  }

  test("a peel that removes no edge adds nothing to the known cores") {
    // complete digraphs on 5 and on 7 vertices: every [x,y]-core with x, y
    // ≤ 4 is the whole graph, and every one with 5 ≤ x, y ≤ 6 the second
    def complete(ids: Seq[Long]) = for (u <- ids; v <- ids if u != v) yield (u, v)
    val pairs = complete(1L to 5L) ++ complete(11L to 17L)
    val engines: Seq[(String, () => PairEngine)] = Seq(
      "local" -> (() => new LocalCoreEngine(LocalDigraph.fromPairs(pairs))),
      "spark, cutoff 0" -> (() => new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = 0L)))
    for ((name, mk) <- engines) using(mk()) { e =>
      // the one peel here that removes edges
      assert(e.core(5, 5).map(_.m) === Some(42L), name)
      val held = e.held
      assert(held > 0, name)
      // incomparable calls whose core is the whole graph, then calls whose
      // core is the known [5,5]-core, at its own (x,y) and above it
      for ((x, y) <- Seq((4, 1), (3, 2), (2, 3), (1, 4), (5, 5), (6, 5), (6, 6))) {
        assert(e.core(x, y).map(_.m) === Some(if (x <= 4) 62L else 42L), s"$name [$x,$y]")
        assert(e.held === held, s"$name [$x,$y]")
      }
    }
  }

  test("a known core that served as a start outlives a later one that never did") {
    // a dense random part, sources of out-degree 1 to 12 into it, and
    // destinations of in-degree 1: the [x,1]-cores for x = 3 to 12 each
    // drop one more of those sources, so they are distinct and each holds
    // nearly every edge
    val pairs = TestGraphs.randomPairs(40, 600, seed = 50) ++
      (1 to 12).flatMap(k => (1 to k).map(v => (100L + k, v.toLong))) ++
      (1 to 10).map(i => (1L, 200L + i))
    val g = LocalDigraph.fromPairs(pairs)
    val m = g.m.toLong
    val local = new LocalCoreEngine(g)
    def cold(x: Int, y: Int) = local.core(x, y).map(h => shape(h.candidate()))
    // every core below the whole graph is finished on the driver: only a
    // call that starts from the whole graph runs a job
    using(new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = m - 1)) { e =>
      assert(e.core(2, 2).nonEmpty) // a, from the whole graph
      val b = e.core(1, 4).get      // nothing known lies below [1,4]
      // a is the one known core below [3,2]: it moves behind b
      assert(e.core(3, 2).nonEmpty)
      // [x,1]-cores, each peeled from the one before: none lies below
      // [2,3] or [1,4], and none starts from a or b
      var x = 3
      var prev = m
      var evicted = false
      while (!evicted) {
        assert(x <= 12, s"the [x,1]-cores up to [12,1] held no more than 8·m = ${8 * m}")
        val before = e.held
        val f = e.core(x, 1).get
        // each drops one more source, so it joins as a new core
        assert(f.m < prev, s"[$x,1]")
        prev = f.m
        evicted = e.held < before + f.m
        // the front of the list was b, the core that never served as a start
        if (evicted) assert(e.held === before + f.m - b.m, s"[$x,1] dropped more than b")
        x += 1
      }
      // a is the one known core below [2,3], and holds its answer on the driver
      var c: Option[CoreHandle] = None
      assert(jobShapes { c = e.core(2, 3) } === Seq())
      assert(c.map(h => shape(h.candidate())) === cold(2, 3))
      // b is gone: [1,4] starts from the whole graph again
      var again: Option[CoreHandle] = None
      assert(jobShapes { again = e.core(1, 4) }.nonEmpty)
      assert(again.map(h => shape(h.candidate())) === cold(1, 4))
    }
  }

  /** ``core`` reached its fixpoint in Spark with exactly the degrees ``want``. */
  private def assertSameDegrees(core: Either[PairDegrees, LocalDigraph], want: PairDegrees, what: String): Unit = {
    val d = core.swap.getOrElse(fail(s"$what: finished on the driver"))
    assert(d.s.toSeq === want.s.toSeq && d.t.toSeq === want.t.toSeq, s"$what ids")
    assert(d.out.toSeq === want.out.toSeq && d.in.toSeq === want.in.toSeq, s"$what degrees")
    assert(d.m === want.m, s"$what m")
  }

  /** The degrees a Spark handle carries, if it reached its fixpoint in Spark. */
  private def carried(h: CoreHandle): Option[PairDegrees] = h match {
    case p: PairCore => p.pair.left.toOption
    case _           => None
  }

  for ((name, pairs) <- Seq("random" -> TestGraphs.randomPairs(30, 150, seed = 45),
                            "skewed" -> TestGraphs.skewedPairs(60, 300, seed = 46))) {
    test(s"carried degrees equal a degree pass over the core ($name graph)") {
      val g = LocalDigraph.fromPairs(pairs)
      val m = g.m.toLong
      for (cutoff <- Seq(0L, m / 3, m - 1)) {
        val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = cutoff)
        try {
          var checked = 0
          var rowWarm: Option[CoreHandle] = None // the [x-1,1]-core
          for (x <- 1 to 4) {
            var warm = rowWarm
            for (y <- 1 to 4) {
              val h = engine.core(x, y, warm)
              assert(h.map(_.m) === Option(LocalXYCore.peel(g, x, y)).filter(_.nonEmpty).map(_.m.toLong),
                s"cutoff $cutoff [$x,$y] m")
              for (hh <- h; d <- carried(hh)) {
                assertSameDegrees(Left(d), EdgeScan.degrees(engine.base, d.s, d.t), s"cutoff $cutoff [$x,$y]")
                checked += 1
              }
              if (h.nonEmpty) warm = h
              if (y == 1 && h.nonEmpty) rowWarm = h
            }
          }
          // below m, the [1,1]-core (the whole graph) is peeled in Spark
          assert(checked >= 1, s"cutoff $cutoff")
        } finally engine.release()
      }
    }
  }

  for ((name, pairs) <- Seq("random" -> TestGraphs.randomPairs(30, 120, seed = 47),
                            "skewed" -> TestGraphs.skewedPairs(60, 300, seed = 48))) {
    test(s"index-space collect equals a build from the id pairs in row order ($name graph)") {
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val m = base.count()
      // more partitions than edges: most tasks see no row
      val wide = base.repartition(m.toInt + 17).cache()
      val ids = pairs.flatMap(p => Seq(p._1, p._2)).distinct
      val absent = Seq(-3L, 0L, 10000L, Long.MaxValue) // no edge touches these
      val rnd = new Random(49)
      def subset(p: Double): Array[Long] = (ids ++ absent).filter(_ => rnd.nextDouble() < p).sorted.toArray
      for ((frame, fname) <- Seq(base -> "base", wide -> "wide")) {
        val rows = frame.collect().map(r => (r.getLong(0), r.getLong(1))).toSeq
        def check(s: Array[Long], t: Array[Long], what: String): Unit = {
          val got = LocalDigraph.fromEdges(frame, s, t)
          val (ss, ts) = (s.toSet, t.toSet)
          val want = LocalDigraph.fromPairs(rows.filter(e => ss(e._1) && ts(e._2)))
          assert(got.n === want.n, s"$fname $what n")
          assert(got.ids.toSeq === want.ids.toSeq, s"$fname $what ids")
          assert(got.src.toSeq === want.src.toSeq, s"$fname $what src")
          assert(got.dst.toSeq === want.dst.toSeq, s"$fname $what dst")
        }
        // S and T drawn from one pool overlap; both include absent ids
        for (p <- Seq(0.3, 0.7, 1.0); k <- 1 to 2) check(subset(p), subset(p), s"p=$p #$k")
        val every = subset(1.0)
        check(every, every, "S = T = every id")
        check(Array.empty, every, "empty S")
        check(every, Array.empty, "empty T")
        check(absent.toArray, absent.toArray, "only absent ids")
      }
      wide.unpersist()
      base.unpersist()
    }
  }
}
