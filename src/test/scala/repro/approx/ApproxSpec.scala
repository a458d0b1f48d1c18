package repro.approx

import repro.{SparkSpec, TestGraphs}
import repro.SparkSpec.jobShapes
import repro.core.{Candidate, LocalCoreEngine, LocalXYCore, SparkCoreEngine}
import repro.graph.{DigraphOps, LocalDigraph}
import repro.ref.BruteForce

/** Approximation algorithms: guarantees vs brute force, Spark/local parity. */
class ApproxSpec extends SparkSpec {

  private def local(pairs: Seq[(Long, Long)]) = LocalDigraph.fromPairs(pairs)

  // ---- CoreApprox ----
  test("CoreApprox on star k=16 is exact") {
    val r = CoreApprox.run(new LocalCoreEngine(local((1 to 16).map(i => (0L, i.toLong)))))
    assert(math.abs(r.result.density - 4.0) < 1e-12)
    assert(r.x === 16 && r.y === 1)
  }

  test("CoreApprox on bidirected K6 is exact") {
    val pairs = for (i <- 0 until 6; j <- 0 until 6 if i != j) yield (i.toLong, j.toLong)
    val r = CoreApprox.run(new LocalCoreEngine(local(pairs)))
    assert(math.abs(r.result.density - 5.0) < 1e-12)
  }

  test("CoreApprox on empty graph") {
    val r = CoreApprox.run(new LocalCoreEngine(local(Seq.empty)))
    assert(r.result.density === 0.0)
  }

  for (seed <- 1 to 15) {
    test(s"CoreApprox achieves at least half of ρopt (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(8, 8 + 2 * (seed % 9), 100 + seed)
      val g = local(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g).density
        val r = CoreApprox.run(new LocalCoreEngine(g))
        assert(r.result.density >= opt / 2 - 1e-9,
          s"got ${r.result.density}, need >= ${opt / 2}")
        assert(r.result.density <= opt + 1e-9)
        assert(r.result.density >= math.sqrt(r.x.toDouble * r.y) - 1e-9)
      }
    }
  }

  /** An ER background of 8.4 edges per id over 2,000 ids plus a planted
    * 40×60 block at p = 0.5: the benchmark's ``approx-spark`` shape at 1/25
    * of its size (m ≈ 18k).
    */
  private def plantedBlock(seed: Long): Seq[(Long, Long)] = {
    val rnd = new scala.util.Random(seed)
    val block = for (i <- 1 to 40; j <- 1 to 60 if rnd.nextDouble() < 0.5) yield (i.toLong, (100 + j).toLong)
    (TestGraphs.randomPairs(2000, 16800, seed) ++ block).distinct
  }

  // At a cutoff of 0.95 m (the benchmark's 400k of 421k), the [x,1]-cores
  // for small x are above the cutoff and differ from the graph by a few
  // edges, so each such call would be a Spark job; CoreApprox makes none of
  // them. The jobs left are the [1,y] doubling at y = 2, 4 and 8, and the
  // y_max(x) probes at a large x whose smallest known core below is still
  // above the cutoff.
  for ((seed, jobs, xy) <- Seq((1L, 6, (22, 16)), (2L, 4, (25, 15)))) {
    test(s"CoreApprox at a cutoff just below m runs $jobs one-stage Spark jobs and finds the local answer (seed=$seed)") {
      val pairs = plantedBlock(seed)
      val g = local(pairs)
      val ca = CoreApprox.run(new LocalCoreEngine(g))
      val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), localCutoff = g.m * 95 / 100)
      var sa: CoreApprox.Detail = null
      val shapes =
        try {
          engine.n // set-up: the cache fill, count and allDegrees pass
          jobShapes { sa = CoreApprox.run(engine) }
        } finally engine.release()
      assert(shapes === Seq.fill(jobs)(1))
      assert((sa.x, sa.y) === xy && (ca.x, ca.y) === xy)
      assert(sa.candidate.s.toSeq === ca.candidate.s.toSeq && sa.candidate.t.toSeq === ca.candidate.t.toSeq)
      assert(sa.result.density === ca.result.density)
    }
  }

  // ---- PeelApprox ----
  test("PeelApprox on star k=9 finds the star") {
    val r = PeelApprox.run(local((1 to 9).map(i => (0L, i.toLong))))
    assert(math.abs(r.density - 3.0) < 1e-9)
  }

  test("PeelApprox on complete bipartite 3x3") {
    val pairs = for (i <- 0 until 3; j <- 0 until 3) yield (i.toLong, (10 + j).toLong)
    val r = PeelApprox.run(local(pairs))
    assert(math.abs(r.density - 3.0) < 1e-9)
  }

  for (seed <- 1 to 12) {
    test(s"PeelApprox reaches at least 0.4 of ρopt on random graphs (seed=$seed)") {
      // 2(1+ε)-style guarantee with ε=0.5 grid -> conservative 0.4 floor here
      val pairs = TestGraphs.randomPairs(8, 10 + 2 * (seed % 7), 200 + seed)
      val g = local(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g).density
        val r = PeelApprox.run(g, eps = 0.2)
        assert(r.density >= 0.4 * opt - 1e-9, s"got ${r.density} opt=$opt")
        assert(r.density <= opt + 1e-9)
      }
    }
  }

  test("PeelApprox on empty graph") {
    assert(PeelApprox.run(local(Seq.empty)).density === 0.0)
  }

  /** peelAtRatio by its definition: each step removes the lowest-index
    * vertex of minimum degree (recounted from the edge list) from the side
    * the ratio picks; returns the best (density, |S|, |T|) seen.
    */
  private def naivePeelAtRatio(g: LocalDigraph, a: Double): (Double, Long, Long) = {
    val edges = TestGraphs.edgePairs(g) // ids ascend with indices
    var s = edges.map(_._1).toSet
    var t = edges.map(_._2).toSet
    def live = edges.filter { case (u, v) => s(u) && t(v) }
    var best = (0.0, 0L, 0L)
    def record(): Unit = {
      val d = DigraphOps.density(live.size.toLong, s.size.toLong, t.size.toLong)
      if (d > best._1) best = (d, s.size.toLong, t.size.toLong)
    }
    record()
    while (s.nonEmpty && t.nonEmpty && live.nonEmpty) {
      val e = live
      if (s.size.toDouble >= a * t.size) s -= s.minBy(u => (e.count(_._1 == u), u))
      else t -= t.minBy(v => (e.count(_._2 == v), v))
      record()
    }
    best
  }

  for (seed <- 1 to 8) {
    test(s"peelAtRatio equals the naive lowest-index min-degree peel (seed=$seed)") {
      val g = TestGraphs.randomLocal(12, 20 + 4 * seed, 500 + seed)
      for (a <- Seq(0.2, 0.5, 1.0, 1.7, 4.0))
        assert(PeelApprox.peelAtRatio(g, a) === naivePeelAtRatio(g, a), s"a=$a")
    }
  }

  test("PeelApprox rejects eps <= 0 (its ratio grid would not grow)") {
    val g = local(Seq((1L, 2L), (2L, 3L)))
    for (eps <- Seq(0.0, -0.5, Double.NaN))
      intercept[IllegalArgumentException](PeelApprox.run(g, eps = eps))
  }

  // ---- BSApprox ----
  test("BSApprox local on star k=9") {
    val r = BSApprox.runLocal(local((1 to 9).map(i => (0L, i.toLong))))
    assert(math.abs(r.density - 3.0) < 1e-9)
  }

  for (seed <- 1 to 10) {
    test(s"BSApprox local reaches at least 0.25 of ρopt (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(8, 10 + 2 * (seed % 7), 300 + seed)
      val g = local(pairs)
      if (g.m > 0) {
        val opt = BruteForce.dds(g).density
        val r = BSApprox.runLocal(g, eps = 0.5, gridFactor = 1.5)
        assert(r.density >= 0.25 * opt - 1e-9, s"got ${r.density} opt=$opt")
        assert(r.density <= opt + 1e-9)
      }
    }
  }

  for (seed <- 1 to 3) {
    test(s"BSApprox Spark equals BSApprox local (seed=$seed)") {
      val pairs = TestGraphs.skewedPairs(40, 180, 400 + seed)
      val df = TestGraphs.df(spark, pairs)
      for ((eps, gridFactor) <- Seq((1.0, 2.0), (0.5, 3.0))) {
        var s: ApproxResult = null
        val engine = new SparkCoreEngine(df)
        val (jobs, again) =
          try (jobShapes { s = BSApprox.run(engine, eps = eps, gridFactor = gridFactor) },
               jobShapes(BSApprox.run(engine, eps = eps, gridFactor = gridFactor)))
          finally engine.release()
        val l = BSApprox.runLocal(local(pairs), eps = eps, gridFactor = gridFactor)
        assert(math.abs(s.density - l.density) < 1e-9,
          s"eps=$eps grid=$gridFactor spark=${s.density} local=${l.density}")
        assert((s.sSize, s.tSize) === ((l.sSize, l.tSize)), s"eps=$eps grid=$gridFactor")
        // the local loop again, counting its rounds that leave a pair
        var rounds = 0
        val counted = BSApprox.rounds(Right(local(pairs)), eps, gridFactor, Long.MaxValue) { (p, x, y) =>
          val next = BSApprox.localRound(p, x, y)
          if (next.exists(_.nonEmpty)) rounds += 1
          next
        }
        assert((counted.density, counted.sSize, counted.tSize) === ((l.density, l.sSize, l.tSize)))
        assert(rounds > 0)
        // after the allDegrees pass, one narrow degree pass per round
        assert(jobs.takeRight(rounds).forall(_ == 1), jobs)
        assert(jobs.size - rounds === allDegreesJobs(df), jobs)
        // a second run on the engine reads its kept degrees and cached edges: no copy, no degree pass
        assert(again === jobs.takeRight(rounds), again)
      }
    }
  }

  /** The Spark jobs of BSApprox.run's allDegrees pass: the first read of a
    * fresh engine's degrees, which also fills its cache.
    */
  private def allDegreesJobs(df: org.apache.spark.sql.DataFrame): Int = {
    val engine = new SparkCoreEngine(df)
    try jobShapes(engine.allDegrees).size finally engine.release()
  }

  /** ``BSApprox.run`` on a fresh engine over ``pairs``, released after. */
  private def runSpark(pairs: Seq[(Long, Long)], eps: Double = 1.0, gridFactor: Double = 2.0,
                       wallBudgetMs: Long = Long.MaxValue): ApproxResult = {
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs))
    try BSApprox.run(engine, eps, gridFactor, wallBudgetMs) finally engine.release()
  }

  test("BSApprox rejects gridFactor <= 1 (its ratio grid would not grow)") {
    val pairs = Seq((1L, 2L), (2L, 3L), (1L, 3L))
    for (gridFactor <- Seq(1.0, 0.5, Double.NaN)) {
      intercept[IllegalArgumentException](BSApprox.runLocal(local(pairs), gridFactor = gridFactor))
      val jobs = jobShapes(intercept[IllegalArgumentException](runSpark(pairs, gridFactor = gridFactor))).size
      assert(jobs === 0)
    }
  }

  test("BSApprox rejects eps < 0 (a round could remove nothing, forever)") {
    val pairs = Seq((1L, 2L), (2L, 3L), (1L, 3L))
    for (eps <- Seq(-0.5, Double.NaN)) {
      intercept[IllegalArgumentException](BSApprox.runLocal(local(pairs), eps = eps))
      val jobs = jobShapes(intercept[IllegalArgumentException](runSpark(pairs, eps = eps))).size
      assert(jobs === 0)
    }
  }

  test("BSApprox Spark on empty input") {
    val r = runSpark(Seq.empty)
    assert(r.density === 0.0)
  }

  test("BSApprox budget hit is reported") {
    val pairs = TestGraphs.skewedPairs(50, 300, seed = 9)
    val r = runSpark(pairs, wallBudgetMs = 0)
    assert(r.budgetHit)
  }

  // ---- pinned answers of the peeling baselines ----
  // (density, |S|, |T|) of PeelApprox (eps 0.5), BSApprox.runLocal and
  // BSApprox.run (eps 1, grid 2), read from the versions that walked their
  // ratio grids each in its own loop: a shared grid must visit the same
  // ratios and keep the same first densest state.
  private val pinnedGraphs = {
    val rnd = new scala.util.Random(78)
    val block = for (i <- 1 to 12; j <- 1 to 15 if rnd.nextDouble() < 0.6) yield (i.toLong, (500 + j).toLong)
    Seq(
      ("skewed", TestGraphs.skewedPairs(300, 2500, seed = 77), (12.831211945876353, 21L, 25L), (12.492974216010564, 21L, 16L)),
      ("planted", (TestGraphs.randomPairs(400, 2000, 78) ++ block).distinct,
       (7.317890075118315, 11L, 15L), (7.0992957397195395, 10L, 14L)))
  }

  for ((name, pairs, peelPin, bsPin) <- pinnedGraphs) {
    test(s"PeelApprox and BSApprox answers are pinned on a fixed graph: $name") {
      val g = local(pairs)
      val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs))
      val bsSpark = try BSApprox.run(engine) finally engine.release()
      def answer(r: ApproxResult) = (r.density, r.sSize, r.tSize)
      assert(answer(PeelApprox.run(g)) === peelPin)
      assert(answer(BSApprox.runLocal(g)) === bsPin)
      assert(answer(bsSpark) === bsPin)
    }
  }

  // ---- adversarial inputs through every peeler ----
  for ((name, pairs, rho) <- TestGraphs.adversarial) {
    test(s"adversarial input through every peeler: $name") {
      val g = local(pairs)
      val df = TestGraphs.df(spark, pairs)
      val core11 = Candidate.of(LocalXYCore.peel(g, 1, 1))
      val peel = PeelApprox.run(g)
      val bsLocal = BSApprox.runLocal(g)
      val bsSpark = runSpark(pairs)
      assert(bsSpark.density === bsLocal.density)
      assert((bsSpark.sSize, bsSpark.tSize) === ((bsLocal.sSize, bsLocal.tSize)))
      val ca = CoreApprox.run(new LocalCoreEngine(g))
      for ((engine, cutoff) <- Seq(("Spark, cutoff 0", Some(0L)), ("Spark, default cutoff", None))) {
        val e = cutoff.fold(new SparkCoreEngine(df))(new SparkCoreEngine(df, _))
        val sa = try CoreApprox.run(e) finally e.release()
        assert((sa.x, sa.y) === ((ca.x, ca.y)), engine)
        assert(sa.candidate.s.toSeq === ca.candidate.s.toSeq, engine)
        assert(sa.candidate.t.toSeq === ca.candidate.t.toSeq, engine)
        assert(sa.result.density === ca.result.density, engine)
      }
      assert(core11.isEmpty === (g.m == 0))
      assert(core11.m === g.m.toLong)
      for (expected <- rho) {
        val found = Seq("LocalXYCore [1,1]" -> core11.density, "PeelApprox" -> peel.density,
          "BSApprox local" -> bsLocal.density, "CoreApprox" -> ca.result.density)
        for ((algo, d) <- found) assert(math.abs(d - expected) < 1e-9, s"$algo: $d vs $expected")
      }
    }
  }

  // ---- cross-algorithm comparison on a planted instance ----
  test("all approximations find the planted dense block to within factor 2") {
    val rnd = new scala.util.Random(5)
    val bg = TestGraphs.randomPairs(60, 120, seed = 10)
    val block = for (i <- 0 until 6; j <- 0 until 6 if rnd.nextDouble() < 0.9)
      yield ((100 + i).toLong, (200 + j).toLong)
    val pairs = (bg ++ block).distinct
    val g = local(pairs)
    val blockDensity = block.size / 6.0
    for (d <- Seq(
      CoreApprox.run(new LocalCoreEngine(g)).result.density,
      PeelApprox.run(g).density,
      BSApprox.runLocal(g).density)) {
      assert(d >= blockDensity / 2 - 1e-9, s"density $d vs planted $blockDensity")
    }
  }
}
