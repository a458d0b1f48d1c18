package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import repro.TestGraphs
import repro.graph.LocalDigraph

/** ScalaCheck property suite over the reference core peeler (runs under
  * sbt's scalacheck framework).
  */
object CoreProps extends Properties("core") {

  private val genGraph: Gen[LocalDigraph] = for {
    n <- Gen.choose(2, 12)
    m <- Gen.choose(1, 40)
    seed <- Gen.choose(0L, 100000L)
  } yield repro.TestGraphs.randomLocal(n, m, seed)

  property("[x,y]-core satisfies its degree constraints") = Prop.forAll(
    genGraph, Gen.choose(1, 3), Gen.choose(1, 3)) { (g, x, y) =>
    val c = LocalXYCore.peel(g, x, y)
    c.isEmpty || {
      val cand = Candidate.of(c)
      val edges = TestGraphs.edgePairs(c)
      val tSet = cand.t.toSet
      val sSet = cand.s.toSet
      cand.s.forall(u => edges.count(e => e._1 == u && tSet.contains(e._2)) >= x) &&
      cand.t.forall(v => edges.count(e => e._2 == v && sSet.contains(e._1)) >= y)
    }
  }

  property("non-empty [x,y]-core has density >= sqrt(x*y)") = Prop.forAll(
    genGraph, Gen.choose(1, 3), Gen.choose(1, 3)) { (g, x, y) =>
    val c = LocalXYCore.peel(g, x, y)
    c.isEmpty || Candidate.of(c).density >= math.sqrt(x.toDouble * y) - 1e-9
  }

  property("cores nested in x") = Prop.forAll(genGraph, Gen.choose(1, 3)) { (g, y) =>
    val c1 = Candidate.of(LocalXYCore.peel(g, 1, y))
    val c2 = Candidate.of(LocalXYCore.peel(g, 2, y))
    c2.s.toSet.subsetOf(c1.s.toSet) && c2.t.toSet.subsetOf(c1.t.toSet)
  }

  property("candidate density consistent with edge recount") = Prop.forAll(genGraph) { g =>
    val c = LocalXYCore.peel(g, 1, 1)
    c.isEmpty || {
      val (s, t) = (Candidate.of(c).s.toSet, Candidate.of(c).t.toSet)
      val recount = TestGraphs.edgePairs(g).count { case (u, v) => s(u) && t(v) }
      recount == c.m
    }
  }
}
