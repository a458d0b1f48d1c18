package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.graph.LocalDigraph
import repro.ref.BruteForce
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Staircase max-x·y search and skyline vs grid-scan ground truth. */
class MaxCoreSpec extends SparkSpec {

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

  /** Forwards to ``inner`` and logs every core call as (x, y, non-empty),
    * and the (x, y) of every call given a warm handle.
    */
  private final class LoggingEngine(inner: CoreEngine) extends CoreEngine {
    val calls = ArrayBuffer.empty[(Int, Int, Boolean)]
    val warmAt = ArrayBuffer.empty[(Int, Int)]
    def n: Long = inner.n
    def m: Long = inner.m
    def fullSub(): LocalDigraph = inner.fullSub()
    def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = {
      val h = inner.core(x, y, warm)
      calls += ((x, y, h.nonEmpty))
      if (warm.nonEmpty) warmAt += ((x, y))
      h
    }
  }

  test("maxXY passes a warm handle only to its [x,1] calls, and the engine starts the rest") {
    for (seed <- 1 to 3) {
      val g = LocalDigraph.fromPairs(TestGraphs.skewedPairs(50, 250, seed))
      val engine = new LoggingEngine(new LocalCoreEngine(g))
      val mx = MaxCore.maxXY(engine).get
      assert(mx.x.toLong * mx.y === BruteForce.maxXYGrid(g).map(p => p._1.toLong * p._2).get, s"seed $seed")
      assert(engine.warmAt.nonEmpty && engine.warmAt.forall { case (x, y) => x >= 2 && y == 1 },
        s"seed $seed: ${engine.warmAt}")
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
      // The [x, yNeed] probe is the call right after a non-empty [x,1] with
      // x ≥ 2. Where it is empty, the next [x',1] call must be at
      // x' = max(x + 1, B/y_max(x) + 1), B the best x·y so far.
      val calls = engine.calls.toIndexedSeq
      def yMax(x: Int): Int = Iterator.from(1).takeWhile(y => LocalXYCore.peel(g, x, y).nonEmpty).size
      val stalls = calls.indices.dropRight(1).collect {
        case i if calls(i)._1 >= 2 && calls(i)._2 == 1 && calls(i)._3 &&
                  calls(i + 1)._1 == calls(i)._1 && calls(i + 1)._2 > 1 && !calls(i + 1)._3 =>
          val (x, yNeed) = (calls(i)._1, calls(i + 1)._2)
          val b = calls.take(i).collect { case (cx, cy, true) => cx.toLong * cy }.max
          val next = calls.drop(i + 2).collectFirst { case (x2, 1, _) => x2.toLong }
          (x, yNeed, yMax(x), next, math.max(x + 1L, b / yMax(x) + 1))
      }
      assert(stalls.nonEmpty, s"no empty [x, yNeed] probe in $calls")
      for ((x, _, _, next, jump) <- stalls) assert(next.forall(_ == jump), s"after x=$x: $stalls")
      // somewhere y_max(x) < yNeed − 1, where the bound yNeed − 1 would jump less
      assert(stalls.exists { case (_, yNeed, ym, _, _) => ym < yNeed - 1 }, s"$stalls")
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
