package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestGraphs
import repro.graph.LocalDigraph

/** Reference [x,y]-core peeling: constraints, maximality, nesting. */
class LocalXYCoreSpec extends AnyFunSuite {

  /** Check the degree constraints of a claimed [x,y]-core. */
  private def checkConstraints(sub: CoreSub, x: Int, y: Int): Unit = {
    if (sub.nonEmpty) {
      val c = sub.candidate
      val edges = TestGraphs.edgePairs(sub.g)
      val sSet = c.s.toSet
      val tSet = c.t.toSet
      for (u <- c.s) {
        val d = edges.count(e => e._1 == u && tSet.contains(e._2))
        assert(d >= x, s"S-vertex $u has out-degree $d < $x")
      }
      for (v <- c.t) {
        val d = edges.count(e => e._2 == v && sSet.contains(e._1))
        assert(d >= y, s"T-vertex $v has in-degree $d < $y")
      }
    }
  }

  /** Brute-force maximal valid pair via fixpoint from the full sets. */
  private def naiveCore(g: LocalDigraph, x: Int, y: Int): (Set[Long], Set[Long]) = {
    var s = g.ids.toSet
    var t = g.ids.toSet
    var changed = true
    while (changed) {
      val s2 = s.filter(u => TestGraphs.edgePairs(g).count(e => e._1 == u && t.contains(e._2)) >= x)
      val t2 = t.filter(v => TestGraphs.edgePairs(g).count(e => e._2 == v && s2.contains(e._1)) >= y)
      changed = s2 != s || t2 != t
      s = s2; t = t2
    }
    if (s.isEmpty || t.isEmpty) (Set.empty, Set.empty) else (s, t)
  }

  test("[1,1]-core of a single edge is that edge") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L)))
    val c = LocalXYCore.peel(g, 1, 1).candidate
    assert(c.s.toSeq === Seq(1L))
    assert(c.t.toSeq === Seq(2L))
    assert(c.m === 1)
  }

  test("[2,1]-core of a single edge is empty") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L)))
    assert(LocalXYCore.peel(g, 2, 1).isEmpty)
  }

  test("star: [k,1]-core keeps the whole star") {
    val k = 6
    val g = LocalDigraph.fromPairs((1 to k).map(i => (0L, i.toLong)))
    val c = LocalXYCore.peel(g, k, 1).candidate
    assert(c.s.toSeq === Seq(0L))
    assert(c.t.length === k)
    assert(LocalXYCore.peel(g, k + 1, 1).isEmpty)
    assert(LocalXYCore.peel(g, 1, 2).isEmpty) // every leaf has in-degree 1
  }

  test("bidirected clique K4: [3,3]-core is everything") {
    val pairs = for (i <- 0 until 4; j <- 0 until 4 if i != j) yield (i.toLong, j.toLong)
    val g = LocalDigraph.fromPairs(pairs)
    val c = LocalXYCore.peel(g, 3, 3)
    assert(c.sSize === 4 && c.tSize === 4 && c.m === 12)
    assert(LocalXYCore.peel(g, 4, 1).isEmpty)
  }

  test("peeling cascades: chain graph has empty [1,2]-core") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L), (2L, 3L), (3L, 4L)))
    assert(LocalXYCore.peel(g, 1, 2).isEmpty)
    val c11 = LocalXYCore.peel(g, 1, 1)
    assert(c11.nonEmpty)
    checkConstraints(c11, 1, 1)
  }

  for (seed <- 1 to 15) {
    test(s"random graph: core equals naive fixpoint and satisfies constraints (seed=$seed)") {
      val g = TestGraphs.randomLocal(10, 8 + seed * 2, seed)
      for (x <- 1 to 3; y <- 1 to 3) {
        val c = LocalXYCore.peel(g, x, y)
        checkConstraints(c, x, y)
        val (ns, nt) = naiveCore(g, x, y)
        assert(c.candidate.s.toSet === ns, s"[$x,$y] S mismatch")
        assert(c.candidate.t.toSet === nt, s"[$x,$y] T mismatch")
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"cores are nested in (x,y) (seed=$seed)") {
      val g = TestGraphs.randomLocal(12, 40, 100 + seed)
      val c11 = LocalXYCore.peel(g, 1, 1).candidate
      val c21 = LocalXYCore.peel(g, 2, 1).candidate
      val c12 = LocalXYCore.peel(g, 1, 2).candidate
      val c22 = LocalXYCore.peel(g, 2, 2).candidate
      assert(c21.s.toSet.subsetOf(c11.s.toSet) && c21.t.toSet.subsetOf(c11.t.toSet))
      assert(c12.s.toSet.subsetOf(c11.s.toSet) && c12.t.toSet.subsetOf(c11.t.toSet))
      assert(c22.s.toSet.subsetOf(c21.s.toSet) && c22.t.toSet.subsetOf(c12.t.toSet))
    }
  }

  for (seed <- 1 to 6) {
    test(s"density of a non-empty [x,y]-core is at least sqrt(x*y) (seed=$seed)") {
      val g = TestGraphs.randomLocal(14, 70, 200 + seed)
      for (x <- 1 to 4; y <- 1 to 4) {
        val c = LocalXYCore.peel(g, x, y).candidate
        if (c.nonEmpty)
          assert(c.density >= math.sqrt(x.toDouble * y) - 1e-9,
            s"[$x,$y] density ${c.density}")
      }
    }
  }

  test("requires x,y >= 1") {
    val g = LocalDigraph.fromPairs(Seq((1L, 2L)))
    intercept[IllegalArgumentException](LocalXYCore.peel(g, 0, 1))
  }
}
