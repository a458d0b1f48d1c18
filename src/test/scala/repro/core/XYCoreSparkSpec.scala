package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.{DigraphOps, LocalDigraph}

/** The Spark DataFrame peeling vs the reference peeler, plus DuckDB checks. */
class XYCoreSparkSpec extends SparkSpec {
  import spark.implicits._

  /** XYCore.peel's core, wherever it was finished. */
  private def peel(base: DataFrame, x: Int, y: Int, warm: Option[Candidate] = None,
                   localCutoff: Long = 0L): Candidate =
    XYCore.peel(base, x, y, warm, localCutoff).fold(c => c, _.candidate)

  private def peelBoth(pairs: Seq[(Long, Long)], x: Int, y: Int): (Candidate, Candidate) = {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val sparkCore = peel(base, x, y)
    val localCore = LocalXYCore.peel(LocalDigraph.fromPairs(pairs), x, y).candidate
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
        val lc = LocalXYCore.peel(g, x, y).candidate
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
        val lc = LocalXYCore.peel(g, x, y).candidate
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
        val all = XYCore.peel(base, x, y, None, localCutoff = 1000000L)
        // a non-empty core under the cutoff comes back with its edges
        assert(all.isRight || pure.isEmpty, s"[$x,$y]")
        val hybridAll = all.fold(c => c, _.candidate)
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
    val warmSub = XYCore.peel(base, 2, 2, Some(c11), localCutoff = 1000000L)
      .getOrElse(fail("not finished on the driver"))
    val warm = warmSub.candidate
    assert(warm.s.toSeq === cold.s.toSeq && warm.t.toSeq === cold.t.toSeq && warm.m === cold.m)
    // the driver finish keeps the core's edges
    assert(TestGraphs.edgePairs(warmSub.g).toSet ===
      TestGraphs.edgePairs(XYCore.collectSub(base, cold).g).toSet)
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
    val df = TestGraphs.df(spark, pairs)
    val engines = Seq(
      "local" -> new LocalCoreEngine(LocalDigraph.fromPairs(pairs)),
      "spark, whole graph on the driver" -> new SparkCoreEngine(df),
      "spark rounds" -> new SparkCoreEngine(df, localCutoff = 0L))
    for ((name, e) <- engines) {
      assert(e.core(1, 1).map(_.m) === Some(7L), name)
      val c22 = e.core(2, 2).get
      assert(c22.m === 6L, name)
      intercept[IllegalArgumentException](e.core(1, 1, Some(c22)))
      intercept[IllegalArgumentException](e.core(2, 1, Some(c22)))
    }
    engines.collect { case (_, e: SparkCoreEngine) => e.release() }
  }

  test("core constraint verified via DuckDB: every S vertex has >= x out-edges into T") {
    val pairs = TestGraphs.skewedPairs(30, 150, seed = 11)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val x = 2; val y = 2
    val core = peel(base, x, y)
    if (core.nonEmpty) {
      val coreEdges = XYCore.coreEdges(base, core)
      val sDf = core.s.toSeq.toDF("id")
      val violators = DigraphOps.outDegrees(coreEdges)
        .where($"deg" < x)
        .join(sDf, "id")
      Oracle.assertEquivalent(
        violators.select($"id"),
        // DuckDB recomputes the same violation query over the core edge set
        s"SELECT src AS id FROM core GROUP BY src HAVING COUNT(*) < $x",
        "core" -> coreEdges)
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
      XYCore.coreEdges(base, core).select("src", "dst"),
      "SELECT src, dst FROM edges WHERE src IN (SELECT id FROM s) AND dst IN (SELECT id FROM t)",
      "edges" -> base, "s" -> sDf, "t" -> tDf)
    base.unpersist()
  }

  test("collectSub materializes exactly the core pair-subgraph") {
    val pairs = TestGraphs.randomPairs(15, 60, seed = 13)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val core = peel(base, 2, 1)
    val sub = XYCore.collectSub(base, core)
    val lc = LocalXYCore.peel(LocalDigraph.fromPairs(pairs), 2, 1)
    assert(sub.candidate.s.toSeq === lc.candidate.s.toSeq)
    assert(sub.candidate.t.toSeq === lc.candidate.t.toSeq)
    assert(TestGraphs.edgePairs(sub.g).toSet === TestGraphs.edgePairs(lc.g).toSet)
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
              assert(sh.candidate().s.toSeq === cold.candidate.s.toSeq, s"$name [$x,$y] S")
              assert(sh.candidate().t.toSeq === cold.candidate.t.toSeq, s"$name [$x,$y] T")
              assert(TestGraphs.edgePairs(sh.sub().g).toSet === TestGraphs.edgePairs(cold.g).toSet,
                s"$name [$x,$y] edges")
            }
            if (s.nonEmpty) warm = s
            if (y == 1 && s.nonEmpty) rowWarm = s
          }
        }
      }
    } finally engine.release()
  }
}
