package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestGraphs
import repro.exact.RatioUtils
import repro.graph.{DigraphOps, LocalDigraph}

/** ScalaCheck property suite over the density algebra and the reference
  * core peeler (runs under sbt's scalacheck framework).
  */
object CoreProps extends Properties("core") {

  private val genGraph: Gen[LocalDigraph] = for {
    n <- Gen.choose(2, 12)
    m <- Gen.choose(1, 40)
    seed <- Gen.choose(0L, 100000L)
  } yield repro.TestGraphs.randomLocal(n, m, seed)

  property("surrogate <= density, equality at matching ratio") = Prop.forAll(
    Gen.choose(1L, 50L), Gen.choose(1L, 50L), Gen.choose(0L, 2500L)) { (s, t, e) =>
    val m = math.min(e, s * t)
    val d = DigraphOps.density(m, s, t)
    val atMatch = DigraphOps.surrogate(m, s, t, s.toDouble / t)
    val off = DigraphOps.surrogate(m, s, t, s.toDouble / t * 3.0)
    math.abs(d - atMatch) < 1e-9 && off <= d + 1e-9
  }

  property("phi in (0,1], symmetric") = Prop.forAll(
    Gen.choose(0.01, 100.0), Gen.choose(0.01, 100.0)) { (a, b) =>
    val p = RatioUtils.phi(a, b)
    p > 0 && p <= 1.0 + 1e-12 && math.abs(p - RatioUtils.phi(b, a)) < 1e-12
  }

  property("[x,y]-core satisfies its degree constraints") = Prop.forAll(
    genGraph, Gen.choose(1, 3), Gen.choose(1, 3)) { (g, x, y) =>
    val c = LocalXYCore.peel(g, x, y)
    c.isEmpty || {
      val cand = c.candidate
      val edges = TestGraphs.edgePairs(c.g)
      val tSet = cand.t.toSet
      val sSet = cand.s.toSet
      cand.s.forall(u => edges.count(e => e._1 == u && tSet.contains(e._2)) >= x) &&
      cand.t.forall(v => edges.count(e => e._2 == v && sSet.contains(e._1)) >= y)
    }
  }

  property("non-empty [x,y]-core has density >= sqrt(x*y)") = Prop.forAll(
    genGraph, Gen.choose(1, 3), Gen.choose(1, 3)) { (g, x, y) =>
    val c = LocalXYCore.peel(g, x, y)
    c.isEmpty || c.candidate.density >= math.sqrt(x.toDouble * y) - 1e-9
  }

  property("cores nested in x") = Prop.forAll(genGraph, Gen.choose(1, 3)) { (g, y) =>
    val c1 = LocalXYCore.peel(g, 1, y).candidate
    val c2 = LocalXYCore.peel(g, 2, y).candidate
    c2.s.toSet.subsetOf(c1.s.toSet) && c2.t.toSet.subsetOf(c1.t.toSet)
  }

  property("candidate density consistent with edge recount") = Prop.forAll(genGraph) { g =>
    val c = LocalXYCore.peel(g, 1, 1)
    c.isEmpty || {
      val (s, t) = (c.candidate.s.toSet, c.candidate.t.toSet)
      val recount = TestGraphs.edgePairs(g).count { case (u, v) => s(u) && t(v) }
      recount == c.m
    }
  }
}
