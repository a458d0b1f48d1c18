package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.LocalDigraph
import repro.ref.BruteForce
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Staircase max-x·y search and skyline vs grid-scan ground truth. */
class MaxCoreSpec extends SparkSpec {
  import MaxCoreSpec.Call

  private def engineOf(pairs: Seq[(Long, Long)]): LocalCoreEngine =
    new LocalCoreEngine(LocalDigraph.fromPairs(pairs))

  test("empty graph has no max core") {
    assert(MaxCore.maxXY(engineOf(Seq.empty)).isEmpty)
  }

  test("single edge: max x*y = 1") {
    val mx = MaxCore.maxXY(engineOf(Seq((1L, 2L)))).get
    assert(mx.x === 1 && mx.y === 1)
    assert(mx.density === 1.0)
  }

  test("star k=9: max x*y is [9,1]") {
    val mx = MaxCore.maxXY(engineOf((1 to 9).map(i => (0L, i.toLong)))).get
    assert(mx.x === 9 && mx.y === 1)
    assert(math.abs(mx.density - 3.0) < 1e-12) // 9/sqrt(9)
  }

  test("bidirected K5: max x*y is [4,4]") {
    val pairs = for (i <- 0 until 5; j <- 0 until 5 if i != j) yield (i.toLong, j.toLong)
    val mx = MaxCore.maxXY(engineOf(pairs)).get
    assert(mx.x === 4 && mx.y === 4)
    assert(math.abs(mx.density - 4.0) < 1e-12)
  }

  test("complete bipartite 4x3: max x*y is [3,4]") {
    val pairs = for (i <- 0 until 4; j <- 0 until 3) yield (i.toLong, (10 + j).toLong)
    val mx = MaxCore.maxXY(engineOf(pairs)).get
    assert(mx.x === 3 && mx.y === 4)
  }

  for (seed <- 1 to 15) {
    test(s"random graph: staircase x*y equals grid-scan maximum (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(10, 12 + 3 * seed, 300 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val mx = MaxCore.maxXY(new LocalCoreEngine(g)).get
        val grid = BruteForce.maxXYGrid(g).get
        assert(mx.x.toLong * mx.y === grid._1.toLong * grid._2,
          s"staircase [${mx.x},${mx.y}] vs grid $grid")
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"2-approx invariants: sqrt(x*y*) <= ρ(core) and ρopt <= 2 sqrt(x*y*) (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(8, 10 + 2 * seed, 400 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val mx = MaxCore.maxXY(new LocalCoreEngine(g)).get
        val bound = math.sqrt(mx.x.toDouble * mx.y)
        assert(mx.density >= bound - 1e-9)
        val opt = BruteForce.dds(g).density
        assert(opt <= 2 * bound + 1e-9, s"opt=$opt bound=$bound")
        assert(mx.density >= opt / 2 - 1e-9, s"approx ratio violated")
      }
    }
  }

  test("skyline of bidirected K4") {
    val pairs = for (i <- 0 until 4; j <- 0 until 4 if i != j) yield (i.toLong, j.toLong)
    val sky = BruteForce.skyline(LocalDigraph.fromPairs(pairs))
    assert(sky === Seq((3, 3)))
  }

  test("skyline of star k=5 is the full staircase") {
    val sky = BruteForce.skyline(LocalDigraph.fromPairs((1 to 5).map(i => (0L, i.toLong))))
    assert(sky === Seq((5, 1)))
  }

  for (seed <- 1 to 6) {
    test(s"skyline points are maximal and consistent with the peeler (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(9, 25, 500 + seed)
      val g = LocalDigraph.fromPairs(pairs)
      if (g.m > 0) {
        val sky = BruteForce.skyline(g)
        assert(sky.nonEmpty)
        // strictly increasing x, strictly decreasing y
        assert(sky.map(_._1) === sky.map(_._1).sorted)
        assert(sky.sliding(2).forall {
          case Seq((x1, y1), (x2, y2)) => x1 < x2 && y1 > y2
          case _                       => true
        })
        for ((x, y) <- sky) {
          assert(LocalXYCore.peel(g, x, y).nonEmpty, s"[$x,$y] should be non-empty")
          assert(LocalXYCore.peel(g, x, y + 1).isEmpty, s"[$x,${y + 1}] should be empty")
        }
        // the max over skyline matches maxXY
        val mx = MaxCore.maxXY(new LocalCoreEngine(g)).get
        assert(sky.map(p => p._1.toLong * p._2).max === mx.x.toLong * mx.y)
      }
    }
  }

  /** maxXY on a Spark engine (None = default cutoff) equals the local engine's. */
  private def assertSparkMatchesLocal(pairs: Seq[(Long, Long)], cutoff: Option[Long]): Unit = {
    val df = TestGraphs.df(spark, pairs)
    val engine = cutoff.fold(new SparkCoreEngine(df))(new SparkCoreEngine(df, _))
    try {
      val sparkMx = MaxCore.maxXY(engine).get
      val localMx = MaxCore.maxXY(engineOf(pairs)).get
      assert(sparkMx.x === localMx.x && sparkMx.y === localMx.y, s"cutoff $cutoff")
      assert(math.abs(sparkMx.density - localMx.density) < 1e-12, s"cutoff $cutoff")
    } finally engine.release()
  }

  /** A cutoff of a third of m: Spark rounds above it, cached local cores below it. */
  private def thirdOfM(pairs: Seq[(Long, Long)]): Long = LocalDigraph.fromPairs(pairs).m / 3L

  test("Spark engine maxXY equals local engine on a skewed graph (pure dataflow)") {
    val pairs = TestGraphs.skewedPairs(50, 250, seed = 17)
    for (cutoff <- Seq(0L, thirdOfM(pairs))) assertSparkMatchesLocal(pairs, Some(cutoff))
  }

  test("Spark engine maxXY equals local engine (delegated small-graph path)") {
    val pairs = TestGraphs.skewedPairs(50, 250, seed = 18)
    // default cutoff: the whole graph is served on the driver
    for (cutoff <- Seq(None, Some(thirdOfM(pairs)))) assertSparkMatchesLocal(pairs, cutoff)
  }

  /** Forwards to ``inner`` and logs every core call. */
  private final class LoggingEngine(inner: CoreEngine) extends CoreEngine {
    val calls = ArrayBuffer.empty[Call]
    def n: Long = inner.n
    def m: Long = inner.m
    def fullSub(): LocalDigraph = inner.fullSub()
    def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = {
      val h = inner.core(x, y, warm)
      calls += Call(x, y, warm, h)
      h
    }
  }

  /** The largest x·y among the cores returned before each call (0 before the first). */
  private def bestBefore(calls: IndexedSeq[Call]): IndexedSeq[Long] =
    calls.scanLeft(0L)((b, c) => c.got.fold(b)(h => b max h.x.toLong * h.y)).dropRight(1)

  /** The walk's own probes: the [x, yNeed] call at each x it visits, yNeed =
    * ⌊B/x⌋ + 1 for the best product B so far. They and the first, [1,1] call
    * are the calls that are not steps of a one-dimensional search.
    */
  private def walkProbes(calls: IndexedSeq[Call]): IndexedSeq[Int] = {
    val b = bestBefore(calls)
    calls.indices.filter(i => i > 0 && calls(i).warm.isEmpty && calls(i).y == b(i) / calls(i).x + 1)
  }

  /** y_max(x) by scanning y up from 1; 0 where even [x,1] is empty. */
  private def yMax(g: LocalDigraph, x: Int): Int =
    Iterator.from(1).takeWhile(y => LocalXYCore.peel(g, x, y).nonEmpty).size

  /** The call-pattern invariants of ``maxXY`` on ``g``:
    *  - a warm handle is passed only by a one-dimensional search: it is the
    *    latest non-empty core returned, lies below the call and shares its x
    *    or its y;
    *  - a call without one is the first call, a walk probe, or a step down
    *    at the x of the call before it, which was empty and had none;
    *  - on a graph with two or more edges at least one warm handle is
    *    passed (the [1,2] probe gets the [1,1]-core);
    *  - the last call is the empty [x,1] probe, x ≥ 2, that ends the walk.
    *
    * So an [x,1] call with x ≥ 2 is a walk probe where ⌊B/x⌋ = 0, the
    * bottom of a downward y_max(x) search, or a step of a y = 1 plateau in
    * x, never a start peeled at each x.
    */
  private def assertCallPattern(g: LocalDigraph, clue: String): Unit = {
    val engine = new LoggingEngine(new LocalCoreEngine(g))
    val mx = MaxCore.maxXY(engine).get
    assert(mx.x.toLong * mx.y === BruteForce.maxXYGrid(g).map(p => p._1.toLong * p._2).get, clue)
    val calls = engine.calls.toIndexedSeq
    val walk = walkProbes(calls).toSet
    var latest: Option[CoreHandle] = None
    for ((c, i) <- calls.zipWithIndex) {
      c.warm match {
        case Some(w) =>
          assert(latest.exists(_ eq w), s"$clue: call $i $c is not warmed by the latest core $latest")
          assert(w.x <= c.x && w.y <= c.y && (w.x == c.x || w.y == c.y), s"$clue: call $i $c, warm [${w.x},${w.y}]")
        case None =>
          val stepDown = i > 0 && calls(i - 1).warm.isEmpty && calls(i - 1).got.isEmpty &&
            calls(i - 1).x == c.x && calls(i - 1).y > c.y
          assert(i == 0 || walk(i) || stepDown, s"$clue: call $i $c is no walk probe and no step down")
      }
      c.got.foreach(h => latest = Some(h))
    }
    if (g.m >= 2) assert(calls.exists(_.warm.nonEmpty), s"$clue: no warm handle in $calls")
    val last = calls.last
    assert(last.x >= 2 && last.y == 1 && last.got.isEmpty, s"$clue: the walk ends with $last")
  }

  test("maxXY passes a warm handle only within its one-dimensional searches, and ends on an empty [x,1] probe") {
    for (seed <- 1 to 3)
      assertCallPattern(LocalDigraph.fromPairs(TestGraphs.skewedPairs(50, 250, seed)), s"skewed seed $seed")
    for (seed <- 1 to 6)
      assertCallPattern(LocalDigraph.fromPairs(TestGraphs.randomPairs(10, 12 + 5 * seed, 700 + seed)), s"random seed $seed")
    val k5 = for (i <- 0 until 5; j <- 0 until 5 if i != j) yield (i.toLong, j.toLong)
    assertCallPattern(LocalDigraph.fromPairs(k5), "bidirected K5")
    assertCallPattern(LocalDigraph.fromPairs((1 to 9).map(i => (0L, i.toLong))), "star k=9")
  }

  test("a single edge: maxXY's two calls are [1,1] and the empty [2,1] that ends the walk, with no warm handle") {
    val engine = new LoggingEngine(new LocalCoreEngine(LocalDigraph.fromPairs(Seq((1L, 2L)))))
    assert(MaxCore.maxXY(engine).map(h => (h.x, h.y)) === Some((1, 1)))
    assert(engine.calls.map(c => (c.x, c.y, c.warm.isEmpty, c.got.isEmpty)) === Seq((1, 1, true, false), (2, 1, true, true)))
  }

  test("where y_max(x) ≥ 2 up to the largest out-degree, the only [x,1] call with x ≥ 2 ends the walk") {
    for (seed <- 1 to 3) {
      // a complete 6×12 block whose sources have the largest out-degree, 12,
      // in random noise over its targets and 52 other vertices
      val block = for (u <- 1 to 6; v <- 7 to 18) yield (u.toLong, v.toLong)
      val noise = TestGraphs.randomPairs(64, 150, 800 + seed).map { case (u, v) => (u + 6, v + 6) }
      val g = LocalDigraph.fromPairs((block ++ noise).distinct)
      val maxOut = (0 until g.n).map(g.outDeg).max
      assert(maxOut === 12 && yMax(g, maxOut) >= 2, s"seed $seed: y_max($maxOut) = ${yMax(g, maxOut)}")
      val engine = new LoggingEngine(new LocalCoreEngine(g))
      MaxCore.maxXY(engine)
      val calls = engine.calls.toIndexedSeq
      assert(calls.filter(c => c.x >= 2 && c.y == 1) === Seq(calls.last), s"seed $seed: $calls")
    }
  }

  /** Out-stars of the given sizes from hubs 1, 2, … onto random vertices
    * of 1..n, a bidirected clique on the last ``clique`` vertices, and
    * ``noise`` random edges.
    */
  private def hubPairs(n: Int, stars: Seq[Int], clique: Int, noise: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    val out = for ((k, h) <- stars.zipWithIndex; v <- rnd.shuffle((1 to n).filter(_ != h + 1)).take(k))
      yield ((h + 1).toLong, v.toLong)
    val block = for (u <- n - clique + 1 to n; v <- n - clique + 1 to n if u != v) yield (u.toLong, v.toLong)
    (out ++ block ++ TestGraphs.randomPairs(n, noise, seed)).distinct
  }

  for (seed <- 1 to 8) {
    test(s"hub-dominated graph: maxXY is a grid maximum and a skyline corner, and jumps by the exact y_max(x) where [x, yNeed] is empty (seed=$seed)") {
      val n = 30 + 20 * seed
      val stars = Seq(n - 5, n / 2, n / 3, n / 4, n / 6, 6, 3)
      val g = LocalDigraph.fromPairs(hubPairs(n, stars, 6 + seed % 3, 2 * n, 600 + seed))
      val engine = new LoggingEngine(new LocalCoreEngine(g))
      val mx = MaxCore.maxXY(engine).get
      val grid = BruteForce.maxXYGrid(g).get
      assert(mx.x.toLong * mx.y === grid._1.toLong * grid._2, s"staircase [${mx.x},${mx.y}] vs grid $grid")
      assert(BruteForce.skyline(g).contains((mx.x, mx.y)), s"[${mx.x},${mx.y}] is no skyline corner")
      assertCallPattern(g, s"hub seed $seed")
      // A stall is an empty walk probe [x, yNeed], the first call at a newly
      // visited x. The next walk probe must be at x' = max(x + 1,
      // B/y_max(x) + 1), B the best x·y so far, and there is none where
      // y_max(x) = 0.
      val calls = engine.calls.toIndexedSeq
      val b = bestBefore(calls)
      val walk = walkProbes(calls)
      val stalls = walk.zipWithIndex.collect {
        case (i, j) if calls(i).got.isEmpty =>
          val (x, yNeed, ym) = (calls(i).x, calls(i).y, yMax(g, calls(i).x))
          val next = walk.lift(j + 1).map(calls(_).x.toLong)
          (x, yNeed, ym, next, Option.when(ym > 0)(math.max(x + 1L, b(i) / ym + 1)))
      }
      assert(stalls.nonEmpty, s"no empty [x, yNeed] probe in $calls")
      for ((x, _, _, next, jump) <- stalls) assert(next === jump, s"after x=$x: $stalls")
      // somewhere 0 < y_max(x) < yNeed − 1, where the bound yNeed − 1 would jump less
      assert(stalls.exists { case (_, yNeed, ym, _, _) => ym > 0 && ym < yNeed - 1 }, s"$stalls")
    }
  }

  test("jumping staircase handles a huge-hub graph quickly and exactly") {
    // one hub with 5000 out-edges plus a small dense block: x_max = 5000
    val hub = (1 to 5000).map(i => (0L, (10000 + i).toLong))
    val block = for (i <- 0 until 30; j <- 0 until 30) yield ((100 + i).toLong, (200 + j).toLong)
    val g = LocalDigraph.fromPairs(hub ++ block)
    val t0 = System.nanoTime()
    val mx = MaxCore.maxXY(new LocalCoreEngine(g)).get
    val ms = (System.nanoTime() - t0) / 1000000L
    assert(mx.x.toLong * mx.y === 5000L, s"got [${mx.x},${mx.y}]") // hub star beats 30x30 block (900)
    assert(ms < 30000, s"staircase took ${ms}ms — jumping broken?")
  }
}

object MaxCoreSpec {

  /** One core call: its (x, y), the warm handle it was given and what it returned. */
  private final case class Call(x: Int, y: Int, warm: Option[CoreHandle], got: Option[CoreHandle])
}
