package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.CoreSub
import repro.graph.{DigraphOps, LocalDigraph}
import repro.ref.BruteForce

/** The (g, a) decision network: decide-and-extract vs brute force. */
class DensityFlowSpec extends AnyFunSuite {

  test("single edge: decision flips exactly at the surrogate value") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L)))
    val sub = CoreSub(g)
    val a = 1.0
    val sur = DigraphOps.surrogate(1, 1, 1, a) // = 1.0
    assert(DensityFlow.bestAbove(sub, sur - 0.01, a).isDefined)
    assert(DensityFlow.bestAbove(sub, sur, a).isEmpty)
    assert(DensityFlow.bestAbove(sub, sur + 0.01, a).isEmpty)
  }

  test("extraction at g=0 returns a pair with positive surrogate") {
    val g = TestGraphs.randomLocal(8, 14, seed = 3)
    val sub = CoreSub(g)
    val c = DensityFlow.bestAbove(sub, 0.0, 1.0)
    assert(c.isDefined)
    assert(c.get.surrogate(1.0) > 0.0)
  }

  test("networkNodes counts 2 + |S| + |T|") {
    val g = TestGraphs.randomLocal(8, 14, seed = 4)
    val sub = CoreSub(g)
    assert(DensityFlow.networkNodes(sub) === 2 + sub.sSize + sub.tSize)
  }

  /** max over all (S,T) of E(S,T) − c_S|S| − c_T|T| (0 at S = T = ∅), by enumeration. */
  private def bruteObjectiveMax(g: LocalDigraph, cS: Double, cT: Double): Double = {
    val outMask = new Array[Int](g.n)
    for (i <- 0 until g.m) outMask(g.src(i)) |= 1 << g.dst(i)
    var best = 0.0
    for (s <- 0 until (1 << g.n); t <- 0 until (1 << g.n)) {
      val e = (0 until g.n).filter(u => (s & (1 << u)) != 0).map(u => Integer.bitCount(outMask(u) & t)).sum
      best = math.max(best, e - cS * Integer.bitCount(s) - cT * Integer.bitCount(t))
    }
    best
  }

  for (seed <- 1 to 10; a <- Seq(0.5, 1.0, 3.0)) {
    test(s"m − maxflow equals the brute-force cut objective (seed=$seed a=$a)") {
      val g = TestGraphs.randomLocal(6 + seed % 2, 5 + seed, 400 + seed)
      val sub = CoreSub(g)
      val opt = BruteForce.surrogateMax(g, a)
      for (gv <- Seq(0.0, opt * 0.5, opt * 0.9, opt, opt * 1.5 + 1.0)) {
        val cS = gv / (2.0 * math.sqrt(a))
        val cT = gv * math.sqrt(a) / 2.0
        val expected = bruteObjectiveMax(g, cS, cT)
        val got = g.m - DensityFlow.maxflow(sub, gv, a)
        assert(math.abs(got - expected) < 1e-9, s"g=$gv: m − flow = $got, objective max = $expected")
      }
    }
  }

  for (seed <- 1 to 12; a <- Seq(0.5, 1.0, 2.0)) {
    test(s"decision matches brute-force surrogate max (seed=$seed a=$a)") {
      val g = TestGraphs.randomLocal(7, 4 + seed, seed)
      if (g.m > 0) {
        val sub = CoreSub(g)
        val opt = BruteForce.surrogateMax(g, a)
        // strictly below opt: must find something better
        val below = DensityFlow.bestAbove(sub, opt * 0.999 - 1e-9, a)
        assert(below.isDefined, s"expected a pair above ${opt * 0.999}")
        assert(below.get.surrogate(a) > opt * 0.999 - 1e-9)
        // at/above opt: must find nothing
        assert(DensityFlow.bestAbove(sub, opt, a).isEmpty, s"opt=$opt")
        assert(DensityFlow.bestAbove(sub, opt * 1.001 + 1e-9, a).isEmpty)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"extracted pair is the exact surrogate argmax after Dinkelbach (seed=$seed)") {
      val g = TestGraphs.randomLocal(7, 6 + seed, 50 + seed)
      if (g.m > 0) {
        val sub = CoreSub(g)
        val a = 1.0 + (seed % 3) * 0.5
        // Dinkelbach iteration from 0 must converge to the brute-force optimum.
        var gCur = 0.0
        var cand = Option.empty[repro.core.Candidate]
        var continue = true
        var iters = 0
        while (continue) {
          iters += 1
          assert(iters < 100)
          DensityFlow.bestAbove(sub, gCur, a) match {
            case Some(c) => cand = Some(c); gCur = c.surrogate(a)
            case None    => continue = false
          }
        }
        val opt = BruteForce.surrogateMax(g, a)
        assert(cand.isDefined)
        assert(math.abs(cand.get.surrogate(a) - opt) < 1e-9,
          s"got ${cand.get.surrogate(a)} expected $opt")
      }
    }
  }

  test("empty subgraph: no answer") {
    assert(DensityFlow.bestAbove(CoreSub.empty, 0.0, 1.0).isEmpty)
  }

  test("full bipartite block: argmax at matching ratio is the whole block") {
    // 3x2 complete bipartite: surrogate at a=3/2 equals density sqrt(6)=2.449...
    val pairs = for (i <- 0 until 3; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
    val g = LocalDigraph.fromPairs(pairs)
    val sub = CoreSub(g)
    val a = 1.5
    val c = DensityFlow.bestAbove(sub, math.sqrt(6.0) - 0.01, a)
    assert(c.isDefined)
    assert(c.get.sSize === 3 && c.get.tSize === 2 && c.get.m === 6)
    assert(DensityFlow.bestAbove(sub, math.sqrt(6.0) + 1e-9, a).isEmpty)
  }
}
