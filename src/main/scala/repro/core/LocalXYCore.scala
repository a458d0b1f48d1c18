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

  /** Peel g down to its [x,y]-core: ``g`` restricted to the core's edges
    * (see [[LocalDigraph.restrict]]). Requires x ≥ 1 and y ≥ 1.
    */
  def peel(g: LocalDigraph, x: Int, y: Int): CoreSub = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val n = g.n
    val inS = Array.fill(n)(true)
    val inT = Array.fill(n)(true)
    val outd = new Array[Int](n)
    val ind  = new Array[Int](n)
    // worklist of removals: v*2 from the S side, v*2+1 from the T side; a
    // side is pushed once, when its degree first falls below the threshold
    val stack = new Array[Int](2 * n)
    var top = 0
    var v = 0
    while (v < n) {
      outd(v) = g.outDeg(v); ind(v) = g.inDeg(v)
      if (outd(v) < x) { stack(top) = v * 2; top += 1 }
      if (ind(v) < y) { stack(top) = v * 2 + 1; top += 1 }
      v += 1
    }
    while (top > 0) {
      top -= 1
      val code = stack(top)
      val w = code / 2
      if (code % 2 == 0) {
        inS(w) = false
        // removing w from S lowers in-degree of its out-neighbours in T
        var e = g.outOff(w)
        while (e < g.outOff(w + 1)) {
          val nb = g.outAdj(e)
          if (inT(nb)) {
            ind(nb) -= 1
            if (ind(nb) == y - 1) { stack(top) = nb * 2 + 1; top += 1 }
          }
          e += 1
        }
      } else {
        inT(w) = false
        var e = g.inOff(w)
        while (e < g.inOff(w + 1)) {
          val nb = g.inAdj(e)
          if (inS(nb)) {
            outd(nb) -= 1
            if (outd(nb) == x - 1) { stack(top) = nb * 2; top += 1 }
          }
          e += 1
        }
      }
    }
    CoreSub(g.restrict(inS, inT))
  }
}
