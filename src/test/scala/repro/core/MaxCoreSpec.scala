package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalDigraph
import repro.ref.BruteForce

/** Staircase max-x·y search and skyline vs grid-scan ground truth. */
class MaxCoreSpec extends AnyFunSuite {

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
    val df = TestGraphs.df(repro.SparkSpec.shared, pairs)
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
