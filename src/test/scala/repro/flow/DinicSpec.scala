package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Max-flow substrate: hand instances, random cross-checks against a
  * brute-force min-cut, and min-cut extraction properties.
  */
class DinicSpec extends AnyFunSuite {

  /** Brute-force min s-t cut by enumerating all source-side subsets. */
  private def bruteMinCut(n: Int, edges: Seq[(Int, Int, Double)], s: Int, t: Int): Double = {
    require(n <= 16)
    var best = Double.MaxValue
    val lim = 1 << n
    var mask = 0
    while (mask < lim) {
      if ((mask & (1 << s)) != 0 && (mask & (1 << t)) == 0) {
        var cut = 0.0
        for ((u, v, c) <- edges) if ((mask & (1 << u)) != 0 && (mask & (1 << v)) == 0) cut += c
        if (cut < best) best = cut
      }
      mask += 1
    }
    best
  }

  private def solve(n: Int, edges: Seq[(Int, Int, Double)], s: Int, t: Int): Double = {
    val d = new Dinic(n)
    edges.foreach { case (u, v, c) => d.addEdge(u, v, c) }
    d.maxflow(s, t)
  }

  test("single edge") {
    assert(solve(2, Seq((0, 1, 3.5)), 0, 1) === 3.5)
  }

  test("two parallel paths") {
    val e = Seq((0, 1, 2.0), (1, 3, 2.0), (0, 2, 1.0), (2, 3, 5.0))
    assert(math.abs(solve(4, e, 0, 3) - 3.0) < 1e-9)
  }

  test("classic CLRS-style network") {
    val e = Seq((0, 1, 16.0), (0, 2, 13.0), (1, 2, 10.0), (2, 1, 4.0), (1, 3, 12.0),
      (3, 2, 9.0), (2, 4, 14.0), (4, 3, 7.0), (3, 5, 20.0), (4, 5, 4.0))
    assert(math.abs(solve(6, e, 0, 5) - 23.0) < 1e-9)
  }

  test("disconnected sink gives zero flow") {
    assert(solve(4, Seq((0, 1, 5.0), (2, 3, 5.0)), 0, 3) === 0.0)
  }

  test("zero-capacity edges carry no flow") {
    assert(solve(3, Seq((0, 1, 0.0), (1, 2, 7.0)), 0, 2) === 0.0)
  }

  for (k <- Seq(4, 100000))
    test(s"bottleneck in a chain of $k nodes") {
      // path 0 → 1 → … → k−1: capacity 9 except one 0.5 arc in the middle;
      // the level graph is k levels deep
      val mid = (k - 1) / 2
      val d = new Dinic(k)
      for (i <- 0 until k - 1) d.addEdge(i, i + 1, if (i == mid) 0.5 else 9.0)
      assert(math.abs(d.maxflow(0, k - 1) - 0.5) < 1e-12)
      val side = d.minCutSourceSide(0)
      assert((0 until k).forall(v => side(v) == (v <= mid)))
    }

  test("a second maxflow call is rejected") {
    val d = new Dinic(3)
    d.addEdge(0, 1, 2.0)
    d.addEdge(1, 2, 1.0)
    assert(math.abs(d.maxflow(0, 2) - 1.0) < 1e-12)
    intercept[IllegalArgumentException](d.maxflow(0, 2))
  }

  test("anti-parallel edges") {
    val e = Seq((0, 1, 3.0), (1, 0, 2.0), (1, 2, 3.0))
    assert(math.abs(solve(3, e, 0, 2) - 3.0) < 1e-9)
  }

  for (seed <- 1 to 15)
    test(s"random network matches brute-force min-cut (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 2 + rnd.nextInt(6) // up to 8 nodes
      val s = 0
      val t = n - 1
      val m = 2 + rnd.nextInt(14)
      val edges = Seq.fill(m) {
        val u = rnd.nextInt(n)
        var v = rnd.nextInt(n)
        if (v == u) v = (v + 1) % n
        (u, v, (rnd.nextInt(10) + 1).toDouble)
      }
      val flow = solve(n, edges, s, t)
      val cut = bruteMinCut(n, edges, s, t)
      assert(math.abs(flow - cut) < 1e-7, s"flow=$flow cut=$cut edges=$edges")
    }

  for (seed <- 1 to 10)
    test(s"min-cut source side is a valid cut of min capacity (seed=$seed)") {
      val rnd = new Random(100 + seed)
      val n = 3 + rnd.nextInt(5)
      val s = 0
      val t = n - 1
      val m = 3 + rnd.nextInt(12)
      val edges = Seq.fill(m) {
        val u = rnd.nextInt(n)
        var v = rnd.nextInt(n)
        if (v == u) v = (v + 1) % n
        (u, v, (rnd.nextInt(8) + 1).toDouble)
      }
      val d = new Dinic(n)
      edges.foreach { case (u, v, c) => d.addEdge(u, v, c) }
      val flow = d.maxflow(s, t)
      val side = d.minCutSourceSide(s)
      assert(side(s) && !side(t))
      val cutCap = edges.collect { case (u, v, c) if side(u) && !side(v) => c }.sum
      assert(math.abs(cutCap - flow) < 1e-7, s"cutCap=$cutCap flow=$flow")
    }

  test("fractional capacities") {
    val e = Seq((0, 1, 0.3), (0, 2, 0.4), (1, 3, 1.0), (2, 3, 0.25))
    assert(math.abs(solve(4, e, 0, 3) - 0.55) < 1e-9)
  }

  test("large-ish layered network runs fast and exactly") {
    // k parallel 3-hop paths: flow = k
    val k = 500
    val d = new Dinic(2 + 2 * k)
    for (i <- 0 until k) {
      d.addEdge(0, 2 + i, 1.0)
      d.addEdge(2 + i, 2 + k + i, 1.0)
      d.addEdge(2 + k + i, 1, 1.0)
    }
    assert(math.abs(d.maxflow(0, 1) - k) < 1e-6)
  }
}
