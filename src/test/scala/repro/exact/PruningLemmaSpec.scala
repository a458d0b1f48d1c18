package repro.exact

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.{LocalCoreEngine, SparkCoreEngine}
import repro.graph.{DigraphOps, LocalDigraph}
import repro.ref.BruteForce

/** Direct validation of the mathematical facts the exact search relies on
  * (DESIGN.md "Mathematical core"), on exhaustively-checkable graphs.
  */
class PruningLemmaSpec extends AnyFunSuite {

  for (seed <- 1 to 8) {
    test(s"ratio-transfer bound: ρ*(b) ≤ o_a/φ(a,b) for all a,b (seed=$seed)") {
      val g = TestGraphs.randomLocal(7, 10 + seed * 2, 8000 + seed)
      if (g.m > 0) {
        val ratios = for (p <- 1 to 5; q <- 1 to 5) yield p.toDouble / q
        for (a <- Seq(0.5, 1.0, 2.0)) {
          val oA = BruteForce.surrogateMax(g, a)
          for (b <- ratios.distinct) {
            // brute ρ restricted to pairs of ratio b
            var rhoB = 0.0
            val n = g.n
            for (s <- 1 until (1 << n); t <- 1 until (1 << n)) {
              val ss = Integer.bitCount(s); val ts = Integer.bitCount(t)
              if (math.abs(ss.toDouble / ts - b) < 1e-12) {
                var e = 0L
                for (i <- 0 until g.m)
                  if ((s & (1 << g.src(i))) != 0 && (t & (1 << g.dst(i))) != 0) e += 1
                val d = DigraphOps.density(e, ss.toLong, ts.toLong)
                if (d > rhoB) rhoB = d
              }
            }
            assert(rhoB <= oA / RatioUtils.phi(a, b) + 1e-9,
              s"a=$a b=$b rhoB=$rhoB bound=${oA / RatioUtils.phi(a, b)}")
          }
        }
      }
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
    val spark = repro.SparkSpec.shared
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
