package repro.ref

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.core.Candidate
import repro.graph.LocalDigraph

/** Sanity for the exhaustive ground truth itself, on hand-solvable graphs. */
class BruteForceSpec extends AnyFunSuite {

  test("single edge: ρopt = 1") {
    val r = BruteForce.dds(LocalDigraph.fromPairs(Seq((1L, 2L))))
    assert(r.density === 1.0)
    assert(r.s.toSeq === Seq(1L) && r.t.toSeq === Seq(2L))
  }

  test("bidirected pair: ρopt = 1") {
    val r = BruteForce.dds(LocalDigraph.fromPairs(Seq((1L, 2L), (2L, 1L))))
    assert(math.abs(r.density - 1.0) < 1e-12)
  }

  test("bidirected triangle: ρopt = 2") {
    val pairs = for (i <- 0 until 3; j <- 0 until 3 if i != j) yield (i.toLong, j.toLong)
    val r = BruteForce.dds(LocalDigraph.fromPairs(pairs))
    assert(math.abs(r.density - 2.0) < 1e-12)
    assert(r.sSize === 3 && r.tSize === 3)
  }

  test("directed star k=9: ρopt = 3") {
    val r = BruteForce.dds(LocalDigraph.fromPairs((1 to 9).map(i => (0L, i.toLong))))
    assert(math.abs(r.density - 3.0) < 1e-12)
    assert(r.sSize === 1 && r.tSize === 9)
  }

  test("complete bipartite 3x3: ρopt = 3") {
    val pairs = for (i <- 0 until 3; j <- 0 until 3) yield (i.toLong, (10 + j).toLong)
    val r = BruteForce.dds(LocalDigraph.fromPairs(pairs))
    assert(math.abs(r.density - 3.0) < 1e-12)
  }

  test("star plus isolated edge keeps the star optimal") {
    val pairs = (1 to 6).map(i => (0L, i.toLong)) :+ ((20L, 21L))
    val r = BruteForce.dds(LocalDigraph.fromPairs(pairs))
    assert(math.abs(r.density - math.sqrt(6.0)) < 1e-12)
  }

  test("empty graph") {
    val r = BruteForce.dds(LocalDigraph.fromPairs(Seq.empty))
    assert(r.density === 0.0)
  }

  // ρ'_{p/q} = 2√(pq)·e/d ≤ ρ = E/√(|S||T|), squared: 4pq·e²·|S||T| ≤ E²·d²
  private def surrogateSq(p: Long, q: Long, level: (Long, Long), opt: Candidate): (Long, Long) =
    (4 * p * q * level._1 * level._1 * opt.sSize * opt.tSize, opt.m * opt.m * level._2 * level._2)

  test("surrogateLevel at the optimal ratio gives ρopt") {
    val pairs = for (i <- 0 until 3; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
    val g = LocalDigraph.fromPairs(pairs)
    val opt = BruteForce.dds(g)
    val (p, q) = (opt.sSize.toLong, opt.tSize.toLong)
    val (lhs, rhs) = surrogateSq(p, q, BruteForce.surrogateLevel(g, p, q), opt)
    assert(lhs === rhs)
  }

  test("surrogateLevel is below ρopt at other ratios") {
    val g = TestGraphs.randomLocal(8, 20, seed = 77)
    val opt = BruteForce.dds(g)
    for ((p, q) <- Seq((1L, 4L), (1L, 2L), (1L, 1L), (2L, 1L), (4L, 1L))) {
      val (lhs, rhs) = surrogateSq(p, q, BruteForce.surrogateLevel(g, p, q), opt)
      assert(lhs <= rhs, s"a=$p/$q")
    }
  }

  test("maxXYGrid on complete bipartite 4x2 gives [2,4]") {
    val pairs = for (i <- 0 until 4; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
    assert(BruteForce.maxXYGrid(LocalDigraph.fromPairs(pairs)) === Some((2, 4)))
  }

  test("n > 16 rejected") {
    val g = TestGraphs.randomLocal(20, 40, seed = 5)
    intercept[IllegalArgumentException](BruteForce.dds(g))
  }
}
