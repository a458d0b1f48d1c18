package repro.exact

import repro.{SparkSpec, TestGraphs}
import repro.core.{Candidate, LocalCoreEngine, SparkCoreEngine}
import repro.graph.LocalDigraph
import repro.ref.BruteForce

/** Direct validation of the mathematical facts the exact search relies on
  * (DESIGN.md "Mathematical core"), on exhaustively-checkable graphs.
  */
class PruningLemmaSpec extends SparkSpec {

  /** The most edges of any pair with |S| = s and |T| = t, by brute force. */
  private def maxEdges(g: LocalDigraph): Array[Array[Long]] = {
    val best = Array.fill(g.n + 1, g.n + 1)(0L)
    for (s <- 1 until (1 << g.n); t <- 1 until (1 << g.n)) {
      val e = (0 until g.m).count(i => (s & (1 << g.src(i))) != 0 && (t & (1 << g.dst(i))) != 0).toLong
      val (ss, ts) = (Integer.bitCount(s), Integer.bitCount(t))
      best(ss)(ts) = math.max(best(ss)(ts), e)
    }
    best
  }

  private val smallRatios = for (p <- 1L to 5L; q <- 1L to 5L if BigInt(p).gcd(q) == 1) yield (p, q)

  /** A best pair of m edges with |S| = s and |T| = t; the tests read only these counts. */
  private def pair(m: Long, s: Int, t: Int) = Candidate(Array.tabulate(s)(_.toLong), Array.tabulate(t)(_.toLong), m)

  /** The brute-force optimum, then the densest pairs of k random sizes. */
  private def bestPairs(g: LocalDigraph, maxE: Array[Array[Long]], seed: Int, k: Int): Seq[Candidate] = {
    val rnd = new scala.util.Random(seed)
    BruteForce.dds(g) +: Seq.fill(k) {
      val (s, t) = (1 + rnd.nextInt(g.n), 1 + rnd.nextInt(g.n))
      pair(maxE(s)(t), s, t)
    }
  }

  for (seed <- 1 to 8) {
    test(s"ratio-transfer bound: ρ*(b) ≤ o_a/φ(a,b) for all a,b (seed=$seed)") {
      // in integers: with b = u/v and o_a = 2√(pq)·e/d, a pair of sizes
      // (s, t) = k·(u, v) and E edges obeys E²/(st) · 4puqv/(pv+uq)² ≤ 4pq·e²/d²
      val g = TestGraphs.randomLocal(7, 10 + seed * 2, 8000 + seed)
      if (g.m > 0) {
        val maxE = maxEdges(g)
        for ((p, q) <- Seq((1L, 2L), (1L, 1L), (2L, 1L))) {
          val (e, d) = BruteForce.surrogateLevel(g, p, q)
          for (s <- 1 to g.n; t <- 1 to g.n) {
            val k = BigInt(s).gcd(t).toLong
            val (u, v) = (s / k, t / k)
            val w = BigInt(p * v + u * q)
            val lhs = BigInt(maxE(s)(t)).pow(2) * u * v * d * d
            assert(lhs <= BigInt(e) * e * s * t * w * w, s"a=$p/$q b=$u/$v sizes=($s,$t)")
          }
        }
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"the integer pruning test prunes only ratios no denser than the best pair (seed=$seed)") {
      val g = TestGraphs.randomLocal(5 + seed % 4, 8 + 2 * seed, 8100 + seed)
      if (g.m > 0) {
        val maxE = maxEdges(g)
        val bests = bestPairs(g, maxE, seed, 4)
        var pruned = 0
        for ((p, q) <- smallRatios; best <- bests) {
          val (e, d) = BruteForce.surrogateLevel(g, p, q)
          val probe = DDSExact.Probe(p, q, e, d)
          // 0/1 and 1/0 are never pruned
          assert(!probe.prunes(0, 1, best) && !probe.prunes(1, 0, best))
          // b = a is pruned iff o_a ≤ ρ(best): 4pq·e²·|S||T| ≤ E²·d²
          assert(probe.prunes(p, q, best) ===
            (BigInt(4 * p * q) * e * e * best.sSize * best.tSize <= BigInt(best.m) * best.m * d * d))
          for (s <- 1 to g.n; t <- 1 to g.n) {
            val k = BigInt(s).gcd(t).toLong
            if (probe.prunes(s / k, t / k, best)) {
              pruned += 1
              // every pair of ratio b is no denser than best
              assert(BigInt(maxE(s)(t)).pow(2) * best.sSize * best.tSize <= BigInt(best.m).pow(2) * s * t,
                s"a=$p/$q b=$s/$t best=(${best.m}, ${best.sSize}, ${best.tSize})")
            }
          }
        }
        assert(pruned > 0)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"the ratio walk probes or prunes every ratio p/q with p, q <= n, each probe once (seed=$seed)") {
      val g = TestGraphs.randomLocal(5 + seed % 4, 8 + 2 * seed, 8300 + seed)
      if (g.m > 0) {
        val n = g.n.toLong
        val levels = scala.collection.mutable.Map.empty[(Long, Long), (Long, Long)]
        for (best <- bestPairs(g, maxEdges(g), seed, 3)) {
          val probed = scala.collection.mutable.ArrayBuffer.empty[DDSExact.Probe]
          val done = DDSExact.walk(n, best, stop = false) { (p, q) =>
            val (e, d) = levels.getOrElseUpdate((p, q), BruteForce.surrogateLevel(g, p, q))
            val pr = DDSExact.Probe(p, q, e, d)
            probed += pr
            Some(pr)
          }
          assert(done)
          val ratios = probed.map(pr => (pr.p, pr.q))
          assert(ratios.distinct.size === ratios.size, ratios)
          for (p <- 1L to n; q <- 1L to n if BigInt(p).gcd(q) == 1)
            assert(ratios.contains((p, q)) || probed.exists(_.prunes(p, q, best)),
              s"$p/$q neither probed nor pruned, best=(${best.m}, ${best.sSize}, ${best.tSize})")
        }
      }
    }
  }

  test("the integer pruning test prunes nothing when o_a exceeds the best density") {
    val g = TestGraphs.randomLocal(7, 16, 8200)
    // one edge among n x n vertices: density 1/n, below any o_a here
    val weak = pair(1L, g.n, g.n)
    for ((p, q) <- smallRatios) {
      val (e, d) = BruteForce.surrogateLevel(g, p, q)
      assert(BigInt(4 * p * q) * e * e * g.n * g.n > BigInt(d) * d)
      val probe = DDSExact.Probe(p, q, e, d)
      for (u <- 0L to 3L * g.n; v <- 0L to 3L * g.n if u + v > 0)
        assert(!probe.prunes(u, v, weak), s"a=$p/$q b=$u/$v")
    }
  }

  for (seed <- 1 to 6) {
    test(s"core-restricted Dinkelbach reaches the global surrogate max (seed=$seed)") {
      // This is CoreExact's inner loop: flows built only on the
      // [⌈e·q/d⌉,⌈e·p/d⌉]-core at level e/d must still converge to the same
      // optimum (core containment of the surrogate argmax).
      val g = TestGraphs.randomLocal(8, 16 + seed, 9000 + seed)
      if (g.m > 0) {
        val engine = new LocalCoreEngine(g)
        for ((p, q) <- Seq((1L, 2L), (1L, 1L), (2L, 1L))) {
          val opt = BruteForce.surrogateLevel(g, p, q)
          var cur = (0L, 1L)
          var continue = true
          var iters = 0
          while (continue) {
            iters += 1
            assert(iters < 100)
            val (e, d) = cur
            val x = math.max(1L, (e * q + d - 1) / d).toInt
            val y = math.max(1L, (e * p + d - 1) / d).toInt
            engine.core(x, y) match {
              case None => continue = false
              case Some(h) =>
                repro.flow.DensityFlow.bestAbove(h.sub(), e, d, p, q) match {
                  case Some(c) => cur = (c.m, q * c.sSize + p * c.tSize)
                  case None    => continue = false
                }
            }
          }
          assert(cur._1 * opt._2 === opt._1 * cur._2, s"a=$p/$q got $cur expected $opt")
        }
      }
    }
  }

  test("planted dense block recovered end-to-end via Spark CoreExact") {
    val edges = repro.SynthGraphs.planted(spark, 300, 1200, 8, 10, 0.9, seed = 41)
    val engine = new SparkCoreEngine(edges)
    val r = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact))
    engine.release()
    // the planted 8x10 block at p=0.9 has density ≈ 0.9*sqrt(80) ≈ 8
    assert(r.density > 6.0, s"planted block missed: ρ=${r.density}")
    // S ⊆ planted sources {1..8} plus possibly a few background vertices
    val plantedS = (1L to 8L).toSet
    assert(r.best.s.count(plantedS.contains) >= 6, r.best.s.toSeq.toString)
  }

  test("CoreExact equals brute force on a planted micro instance") {
    val rnd = new scala.util.Random(7)
    val bg = TestGraphs.randomPairs(10, 12, seed = 55)
    val block = for (i <- 0 until 3; j <- 0 until 3 if rnd.nextDouble() < 0.95)
      yield ((i + 1).toLong, (7 + j).toLong)
    val pairs = (bg ++ block).distinct
    val g = LocalDigraph.fromPairs(pairs)
    if (g.n <= 16) {
      val opt = BruteForce.dds(g).density
      val r = DDSExact.run(new LocalCoreEngine(g), DDSExact.Config(DDSExact.Mode.CoreExact))
      assert(math.abs(r.density - opt) < 1e-9)
    }
  }
}
