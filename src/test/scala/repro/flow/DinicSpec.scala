package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Max-flow substrate: hand instances, random cross-checks against a
  * brute-force min-cut, and min-cut extraction properties.
  */
class DinicSpec extends AnyFunSuite {

  /** Brute-force min s-t cut by enumerating all source-side subsets. */
  private def bruteMinCut(n: Int, edges: Seq[(Int, Int, Long)], s: Int, t: Int): Long = {
    require(n <= 16)
    var best = Long.MaxValue
    val lim = 1 << n
    var mask = 0
    while (mask < lim) {
      if ((mask & (1 << s)) != 0 && (mask & (1 << t)) == 0) {
        var cut = 0L
        for ((u, v, c) <- edges) if ((mask & (1 << u)) != 0 && (mask & (1 << v)) == 0) cut += c
        if (cut < best) best = cut
      }
      mask += 1
    }
    best
  }

  /** The solved network of ``edges`` (tail, head, capacity), edge i
    * preloaded with ``flow(i)`` (0 past the end of ``flow``).
    */
  private def network(n: Int, s: Int, t: Int, edges: Seq[(Int, Int, Long)], flow: Seq[Long] = Nil): Dinic =
    new Dinic(n, s, t, edges.map(_._1).toArray, edges.map(_._2).toArray, edges.map(_._3).toArray,
              flow.padTo(edges.size, 0L).toArray)

  private def solve(n: Int, edges: Seq[(Int, Int, Long)], s: Int, t: Int): Long = network(n, s, t, edges).value

  test("single edge") {
    assert(solve(2, Seq((0, 1, 7L)), 0, 1) === 7L) // 3.5, scaled ×2
  }

  test("two parallel paths") {
    val e = Seq((0, 1, 2L), (1, 3, 2L), (0, 2, 1L), (2, 3, 5L))
    assert(solve(4, e, 0, 3) === 3L)
  }

  test("classic CLRS-style network") {
    val e = Seq((0, 1, 16L), (0, 2, 13L), (1, 2, 10L), (2, 1, 4L), (1, 3, 12L),
      (3, 2, 9L), (2, 4, 14L), (4, 3, 7L), (3, 5, 20L), (4, 5, 4L))
    assert(solve(6, e, 0, 5) === 23L)
  }

  test("disconnected sink gives zero flow") {
    assert(solve(4, Seq((0, 1, 5L), (2, 3, 5L)), 0, 3) === 0L)
  }

  test("zero-capacity edges carry no flow") {
    assert(solve(3, Seq((0, 1, 0L), (1, 2, 7L)), 0, 2) === 0L)
  }

  for (k <- Seq(4, 100000))
    test(s"bottleneck in a chain of $k nodes") {
      // path 0 → 1 → … → k−1: capacity 9 except one 0.5 arc in the middle,
      // scaled ×2; the level graph is k levels deep
      val mid = (k - 1) / 2
      val d = network(k, 0, k - 1, (0 until k - 1).map(i => (i, i + 1, if (i == mid) 1L else 18L)))
      assert(d.value === 1L)
      val side = d.sourceSide()
      assert((0 until k).forall(v => side(v) == (v <= mid)))
    }

  test("anti-parallel edges") {
    val e = Seq((0, 1, 3L), (1, 0, 2L), (1, 2, 3L))
    assert(solve(3, e, 0, 2) === 3L)
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
        (u, v, (rnd.nextInt(10) + 1).toLong)
      }
      val flow = solve(n, edges, s, t)
      val cut = bruteMinCut(n, edges, s, t)
      assert(flow === cut, s"edges=$edges")
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
        (u, v, (rnd.nextInt(8) + 1).toLong)
      }
      val d = network(n, s, t, edges)
      val flow = d.value
      val side = d.sourceSide()
      assert(side(s) && !side(t))
      val cutCap = edges.collect { case (u, v, c) if side(u) && !side(v) => c }.sum
      assert(cutCap === flow)
    }

  /** A feasible flow on ``edges`` made of random s–t path flows: each path
    * is found by a DFS in random arc order over arcs with capacity left,
    * and carries 1 up to its bottleneck.
    */
  private def pathFlows(rnd: Random, n: Int, edges: IndexedSeq[(Int, Int, Long)], s: Int, t: Int,
                        paths: Int): Array[Long] = {
    val flow = new Array[Long](edges.size)
    def path(at: Int, seen: Set[Int]): Option[List[Int]] =
      if (at == t) Some(Nil)
      else rnd.shuffle(edges.indices.filter(i => edges(i)._1 == at && edges(i)._3 > flow(i) && !seen(edges(i)._2)))
        .iterator.map(i => path(edges(i)._2, seen + edges(i)._2).map(i :: _)).collectFirst { case Some(p) => p }
    for (_ <- 0 until paths; p <- path(s, Set(s))) {
      val bottleneck = p.map(i => edges(i)._3 - flow(i)).min
      val f = 1 + rnd.nextLong(bottleneck)
      p.foreach(i => flow(i) += f)
    }
    flow
  }

  for (seed <- 1 to 15)
    test(s"a preloaded feasible flow still reaches the brute-force min cut (seed=$seed)") {
      val rnd = new Random(300 + seed)
      val n = 3 + rnd.nextInt(6)
      val s = 0
      val t = n - 1
      // a chain s → 1 → … → t, so every network has a path, plus random arcs
      val chain = (0 until n - 1).map(i => (i, i + 1, (rnd.nextInt(10) + 1).toLong))
      val extra = Seq.fill(2 + rnd.nextInt(12)) {
        val u = rnd.nextInt(n)
        var v = rnd.nextInt(n)
        if (v == u) v = (v + 1) % n
        (u, v, (rnd.nextInt(10) + 1).toLong)
      }
      val edges = rnd.shuffle(chain ++ extra).toIndexedSeq
      val flow = pathFlows(rnd, n, edges, s, t, paths = 1 + rnd.nextInt(4))
      assert(flow.exists(_ > 0))
      val d = network(n, s, t, edges, flow.toSeq)
      val max = d.value
      assert(max === bruteMinCut(n, edges, s, t), s"edges=$edges flow=${flow.toSeq}")
      val side = d.sourceSide()
      assert(side(s) && !side(t))
      assert(edges.collect { case (u, v, c) if side(u) && !side(v) => c }.sum === max)
    }

  test("an edge's initial flow must lie in [0, capacity] and be conserved") {
    val chain = Seq((0, 1, 5L), (1, 2, 5L))
    intercept[IllegalArgumentException](network(3, 0, 2, chain, Seq(-1L)))
    intercept[IllegalArgumentException](network(3, 0, 2, chain, Seq(6L)))
    intercept[IllegalArgumentException](network(3, 0, 2, Seq((0, 1, -1L), (1, 2, 5L))))
    assert(network(3, 0, 2, chain, Seq(5L, 5L)).value === 5L)
    // 3 units into vertex 1, none out of it
    intercept[IllegalArgumentException](network(3, 0, 2, chain, Seq(3L)))
    // one array per edge field, all of one length
    intercept[IllegalArgumentException](new Dinic(3, 0, 2, Array(0, 1), Array(1, 2), Array(5L), Array(0L, 0L)))
    intercept[IllegalArgumentException](new Dinic(3, 0, 2, Array(0, 1), Array(1), Array(5L, 5L), Array(0L, 0L)))
    // no edges: no flow, and s reaches only itself
    val empty = network(3, 0, 2, Nil)
    assert(empty.value === 0L)
    assert(empty.sourceSide().toSeq === Seq(true, false, false))
  }

  test("fractional capacities") {
    // 0.3, 0.4, 1.0 and 0.25, scaled ×20; the flow 0.55 scales alike
    val e = Seq((0, 1, 6L), (0, 2, 8L), (1, 3, 20L), (2, 3, 5L))
    assert(solve(4, e, 0, 3) === 11L)
  }

  test("large-ish layered network runs fast and exactly") {
    // k parallel 3-hop paths: flow = k
    val k = 500
    val edges = (0 until k).flatMap(i => Seq((0, 2 + i, 1L), (2 + i, 2 + k + i, 1L), (2 + k + i, 1, 1L)))
    assert(solve(2 + 2 * k, edges, 0, 1) === k.toLong)
  }
}
