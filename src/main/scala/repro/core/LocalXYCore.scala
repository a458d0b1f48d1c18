package repro.core

import repro.graph.LocalDigraph

/** Reference [x,y]-core peeling on a driver-local digraph.
  *
  * The [x,y]-core of G is the largest pair (S,T) such that every u∈S has at
  * least x out-neighbours in T and every v∈T has at least y in-neighbours
  * in S. Valid pairs are closed under union, so the maximal core is unique
  * and is computed by iteratively deleting violators (queue-based, exact).
  *
  * This is the oracle the Spark implementation (``XYCore``) is tested
  * against, and the engine used by seed-loop correctness tests.
  */
object LocalXYCore {

  /** Peel g down to its [x,y]-core. Requires x ≥ 1 and y ≥ 1. */
  def peel(g: LocalDigraph, x: Int, y: Int): CoreSub = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val n = g.n
    val inS = new Array[Boolean](n)
    val inT = new Array[Boolean](n)
    val outd = new Array[Int](n)
    val ind  = new Array[Int](n)
    var u = 0
    while (u < n) {
      outd(u) = g.outDeg(u); ind(u) = g.inDeg(u)
      inS(u) = outd(u) >= x; inT(u) = ind(u) >= y
      u = u + 1
    }
    // Degrees restricted to alive opposite side: recompute after initial kill.
    // Simpler and still linear-ish: run a worklist until fixpoint.
    val stack = new java.util.ArrayDeque[Int]()
    // encode: v >= 0 removal from S side as v*2, from T side as v*2+1
    def recompute(): Unit = {
      java.util.Arrays.fill(outd, 0); java.util.Arrays.fill(ind, 0)
      var i = 0
      while (i < g.m) {
        val s = g.src(i); val t = g.dst(i)
        if (inS(s) && inT(t)) { outd(s) += 1; ind(t) += 1 }
        i += 1
      }
    }
    recompute()
    var v = 0
    while (v < n) {
      if (inS(v) && outd(v) < x) stack.push(v * 2)
      if (inT(v) && ind(v) < y) stack.push(v * 2 + 1)
      v += 1
    }
    while (!stack.isEmpty) {
      val code = stack.pop()
      val w = code / 2
      if (code % 2 == 0) {
        if (inS(w)) {
          inS(w) = false
          // removing w from S lowers in-degree of its out-neighbours in T
          var e = g.outOff(w)
          while (e < g.outOff(w + 1)) {
            val nb = g.outAdj(e)
            if (inT(nb)) {
              ind(nb) -= 1
              if (ind(nb) < y) stack.push(nb * 2 + 1)
            }
            e += 1
          }
        }
      } else {
        if (inT(w)) {
          inT(w) = false
          var e = g.inOff(w)
          while (e < g.inOff(w + 1)) {
            val nb = g.inAdj(e)
            if (inS(nb)) {
              outd(nb) -= 1
              if (outd(nb) < x) stack.push(nb * 2)
            }
            e += 1
          }
        }
      }
    }
    toSub(g, inS, inT)
  }

  private def toSub(g: LocalDigraph, inS: Array[Boolean], inT: Array[Boolean]): CoreSub = {
    val s = (0 until g.n).filter(inS).map(g.ids).toArray
    val t = (0 until g.n).filter(inT).map(g.ids).toArray
    val es = (0 until g.m).collect {
      case i if inS(g.src(i)) && inT(g.dst(i)) => (g.ids(g.src(i)), g.ids(g.dst(i)))
    }.toArray
    if (s.isEmpty || t.isEmpty || es.isEmpty) CoreSub.empty
    else CoreSub(s.sorted, t.sorted, es)
  }
}
