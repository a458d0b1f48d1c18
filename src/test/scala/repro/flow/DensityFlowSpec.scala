package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.Candidate
import repro.graph.LocalDigraph
import repro.ref.BruteForce

/** The (e/d, p/q) decision network: decide-and-extract vs brute force. Each
  * threshold is a level e/d of E(S,T)/(q|S| + p|T|), the surrogate ρ'_{p/q}
  * over 2√(pq).
  */
class DensityFlowSpec extends AnyFunSuite {

  /** The level of ``c`` at ratio p/q, as (E, q|S| + p|T|). */
  private def level(c: Candidate, p: Long, q: Long): (Long, Long) = (c.m, q * c.sSize + p * c.tSize)

  /** e1/d1 vs e2/d2, exactly. */
  private def compare(l1: (Long, Long), l2: (Long, Long)): Int = (l1._1 * l2._2).compare(l2._1 * l1._2)

  test("single edge: decision flips exactly at the surrogate value") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L)))
    // at a = 1 the edge has level E/(|S| + |T|) = 1/2
    assert(DensityFlow.bestAbove(g, 1, 2, 1, 1).isEmpty)
    for (k <- Seq(1L, 10L, 1000000L)) {
      assert(DensityFlow.bestAbove(g, k * 1 - 1, k * 2, 1, 1).isDefined, s"k=$k")
      assert(DensityFlow.bestAbove(g, k * 1 + 1, k * 2, 1, 1).isEmpty, s"k=$k")
    }
  }

  test("extraction at g=0 returns a pair with positive surrogate") {
    val g = TestGraphs.randomLocal(8, 14, seed = 3)
    val c = DensityFlow.bestAbove(g, 0, 1, 1, 1)
    assert(c.isDefined)
    assert(c.get.m > 0)
  }

  test("networkNodes counts 2 + |S| + |T|") {
    val g = TestGraphs.randomLocal(8, 14, seed = 4)
    assert(DensityFlow.networkNodes(g) === 2 + g.sSize + g.tSize)
  }

  test("a network whose capacities pass the Long range throws") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L), (1L, 3L), (2L, 3L)))
    // d·m = 3·(2⁶³/2) overflows
    intercept[ArithmeticException](DensityFlow.bestAbove(g, 1, Long.MaxValue / 2, 1, 1))
    intercept[ArithmeticException](DensityFlow.bestAbove(g, Long.MaxValue / 2, 1, 3, 1))
  }

  /** max over all (S,T) of d·E(S,T) − e·(q|S| + p|T|) (0 at S = T = ∅), by enumeration. */
  private def bruteObjectiveMax(g: LocalDigraph, e: Long, d: Long, p: Long, q: Long): Long = {
    val outMask = new Array[Int](g.n)
    for (i <- 0 until g.m) outMask(g.src(i)) |= 1 << g.dst(i)
    var best = 0L
    for (s <- 0 until (1 << g.n); t <- 0 until (1 << g.n)) {
      val es = (0 until g.n).filter(u => (s & (1 << u)) != 0).map(u => Integer.bitCount(outMask(u) & t)).sum
      best = math.max(best, d * es - e * (q * Integer.bitCount(s) + p * Integer.bitCount(t)))
    }
    best
  }

  for (seed <- 1 to 10; (p, q) <- Seq((1L, 2L), (1L, 1L), (3L, 1L))) {
    test(s"m − maxflow equals the brute-force cut objective (seed=$seed a=${p.toDouble / q})") {
      val g = TestGraphs.randomLocal(6 + seed % 2, 5 + seed, 400 + seed)
      val (oe, od) = BruteForce.surrogateLevel(g, p, q)
      // the levels 0, ½·opt, 0.9·opt, opt and 1.5·opt + ½
      for ((e, d) <- Seq((0L, 1L), (oe, 2 * od), (9 * oe, 10 * od), (oe, od), (3 * oe + od, 2 * od))) {
        // ``bestAbove`` throws unless its pair's gain is d·m − max-flow
        val gain = DensityFlow.bestAbove(g, e, d, p, q).fold(0L)(c => d * c.m - e * (q * c.sSize + p * c.tSize))
        assert(gain === bruteObjectiveMax(g, e, d, p, q), s"level $e/$d")
      }
    }
  }

  for (seed <- 1 to 12; (p, q) <- Seq((1L, 2L), (1L, 1L), (2L, 1L))) {
    test(s"decision matches brute-force surrogate max (seed=$seed a=${p.toDouble / q})") {
      val g = TestGraphs.randomLocal(7, 4 + seed, seed)
      if (g.m > 0) {
        val opt @ (oe, od) = BruteForce.surrogateLevel(g, p, q)
        // just below opt: must find something better
        val below = (1000 * oe - 1, 1000 * od)
        val found = DensityFlow.bestAbove(g, below._1, below._2, p, q)
        assert(found.isDefined, s"expected a pair above $below")
        assert(compare(level(found.get, p, q), below) > 0)
        // at/above opt: must find nothing
        assert(DensityFlow.bestAbove(g, oe, od, p, q).isEmpty, s"opt=$opt")
        assert(DensityFlow.bestAbove(g, 1000 * oe + 1, 1000 * od, p, q).isEmpty)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"extracted pair is the exact surrogate argmax after Dinkelbach (seed=$seed)") {
      val g = TestGraphs.randomLocal(7, 6 + seed, 50 + seed)
      if (g.m > 0) {
        val (p, q) = Seq((1L, 1L), (3L, 2L), (2L, 1L))(seed % 3) // a = 1 + (seed % 3)·0.5
        // Dinkelbach iteration from level 0 must converge to the brute-force optimum.
        var cur = (0L, 1L)
        var cand = Option.empty[Candidate]
        var continue = true
        var iters = 0
        while (continue) {
          iters += 1
          assert(iters < 100)
          DensityFlow.bestAbove(g, cur._1, cur._2, p, q) match {
            case Some(c) => cand = Some(c); cur = level(c, p, q)
            case None    => continue = false
          }
        }
        val opt = BruteForce.surrogateLevel(g, p, q)
        assert(cand.isDefined)
        assert(compare(cur, opt) === 0, s"got $cur expected $opt")
      }
    }
  }

  /** ``bestAbove``'s answer and gain, read from the textbook network on a
    * plain ``Dinic``: arcs s→α_u (d·d⁺(u)), α_u→t (e·q), α_u→β_v per edge
    * (d) and β_v→t (e·p), no folded path and no initial flow.
    */
  private def textbook(g: LocalDigraph, e: Long, d: Long, p: Long, q: Long): Option[(Candidate, Long)] = {
    val sV = (0 until g.n).filter(g.outDeg(_) > 0)
    val tV = (0 until g.n).filter(g.inDeg(_) > 0)
    val alpha = sV.zipWithIndex.map { case (u, i) => u -> (2 + i) }.toMap
    val beta = tV.zipWithIndex.map { case (v, j) => v -> (2 + sV.size + j) }.toMap
    val edges = sV.flatMap(u => Seq((0, alpha(u), d * g.outDeg(u)), (alpha(u), 1, e * q))) ++
      tV.map(v => (beta(v), 1, e * p)) ++ (0 until g.m).map(k => (alpha(g.src(k)), beta(g.dst(k)), d))
    val dinic = new Dinic(2 + sV.size + tV.size, 0, 1, edges.map(_._1).toArray, edges.map(_._2).toArray,
                          edges.map(_._3).toArray, new Array[Long](edges.size))
    val gain = d * g.m - dinic.value
    if (gain == 0) None
    else {
      val side = dinic.sourceSide()
      val inS = (0 until g.n).map(u => alpha.get(u).exists(side(_))).toArray
      val inT = (0 until g.n).map(v => beta.get(v).exists(side(_))).toArray
      Some((Candidate(g.idsOf(inS), g.idsOf(inT), g.edgesBetween(inS, inT)), gain))
    }
  }

  /** ``bestAbove`` equals ``textbook`` on ``g`` at each level e/d. */
  private def checkAgainstTextbook(g: LocalDigraph, p: Long, q: Long, levels: Seq[(Long, Long)]): Unit =
    for ((e, d) <- levels) {
      val got = DensityFlow.bestAbove(g, e, d, p, q)
        .map(c => (c.s.toSeq, c.t.toSeq, c.m, d * c.m - e * (q * c.sSize + p * c.tSize)))
      val want = textbook(g, e, d, p, q).map { case (c, gain) => (c.s.toSeq, c.t.toSeq, c.m, gain) }
      assert(got === want, s"level $e/$d at ratio $p/$q")
    }

  for (seed <- 1 to 10; (p, q) <- Seq((1L, 2L), (1L, 1L), (3L, 1L), (2L, 3L))) {
    test(s"the folded, preloaded network gives the textbook network's pair and gain (seed=$seed a=$p/$q)") {
      val g = TestGraphs.randomLocal(8 + 3 * seed, 10 + 8 * seed, 700 + seed)
      val top = g.m / (p + q) + 1 // no level reaches m/(p+q)
      val grid = for (d <- Seq(1L, 3L, 10L); e <- 0L to d * top by math.max(1L, d * top / 8)) yield (e, d)
      // e/d = k/q, so d·d⁺(u) = e·q at every u of out-degree k: no s→α_u or α_u→t arc
      val tied = (0 until g.n).map(g.outDeg).filter(_ > 0).distinct.map(k => (k.toLong, q))
      assert(tied.nonEmpty)
      checkAgainstTextbook(g, p, q, (0L, 1L) +: (grid ++ tied))
    }
  }

  test("the folded, preloaded network on a full bipartite block") {
    // 5x3 complete bipartite plus a sparse tail: at a = 5/3 the block's level is 15/30
    val block = for (i <- 0 until 5; j <- 0 until 3) yield (i.toLong, (10 + j).toLong)
    val g = LocalDigraph.fromPairs(block ++ Seq((20L, 10L), (21L, 11L), (21L, 22L)))
    for ((p, q) <- Seq((5L, 3L), (1L, 1L), (3L, 5L)))
      checkAgainstTextbook(g, p, q, Seq((0L, 1L), (1L, 4L), (1L, 2L), (3L, q), (149L, 300L), (151L, 300L), (1L, 1L)))
  }

  test("empty subgraph: no answer") {
    assert(DensityFlow.bestAbove(LocalDigraph.fromPairs(Nil), 0, 1, 1, 1).isEmpty)
  }

  test("full bipartite block: argmax at matching ratio is the whole block") {
    // 3x2 complete bipartite at a = 3/2: level 6/(2·3 + 3·2) = 6/12, the
    // surrogate 2√6·6/12 = √6 = the density
    val pairs = for (i <- 0 until 3; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
    val g = LocalDigraph.fromPairs(pairs)
    val c = DensityFlow.bestAbove(g, 100 * 6 - 1, 100 * 12, 3, 2)
    assert(c.isDefined)
    assert(c.get.sSize === 3 && c.get.tSize === 2 && c.get.m === 6)
    assert(DensityFlow.bestAbove(g, 6, 12, 3, 2).isEmpty)
  }
}
