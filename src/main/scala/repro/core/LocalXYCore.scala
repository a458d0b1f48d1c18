package repro.core

import repro.graph.LocalDigraph

/** Peeling state over a driver-local digraph: the one local peeling kernel.
  *
  * Starts from S = the vertices with an out-edge and T = those with an
  * in-edge, and tracks the alive masks, each alive vertex's live out-degree
  * into T and in-degree from S, |S|, |T| and |E(S,T)|. A caller removes
  * vertices in whatever order its rule dictates ([x,y]-core thresholds,
  * minimum degree, batch rounds); ``dropS``/``dropT`` keep the rest of the
  * state exact and hand every neighbour whose degree they lowered to
  * ``lowered``, once per lowering, with nothing allocated per removal.
  */
final class PeelState(val g: LocalDigraph) {
  val inS: Array[Boolean] = new Array[Boolean](g.n)
  val inT: Array[Boolean] = new Array[Boolean](g.n)
  val outDeg: Array[Int] = new Array[Int](g.n)
  val inDeg: Array[Int]  = new Array[Int](g.n)
  var sSize: Int = 0
  var tSize: Int = 0
  var m: Long    = g.m.toLong

  {
    var v = 0
    while (v < g.n) {
      outDeg(v) = g.outDeg(v); inDeg(v) = g.inDeg(v)
      if (outDeg(v) > 0) { inS(v) = true; sSize += 1 }
      if (inDeg(v) > 0) { inT(v) = true; tSize += 1 }
      v += 1
    }
  }

  /** Remove ``u`` (alive in S) from S; each alive out-neighbour in T loses
    * one in-degree and is passed to ``lowered``.
    */
  def dropS(u: Int, lowered: Int => Unit): Unit = {
    inS(u) = false; sSize -= 1
    var e = g.outOff(u)
    while (e < g.outOff(u + 1)) {
      val v = g.outAdj(e)
      if (inT(v)) { inDeg(v) -= 1; m -= 1; lowered(v) }
      e += 1
    }
  }

  /** Remove ``v`` (alive in T) from T; each alive in-neighbour in S loses
    * one out-degree and is passed to ``lowered``.
    */
  def dropT(v: Int, lowered: Int => Unit): Unit = {
    inT(v) = false; tSize -= 1
    var e = g.inOff(v)
    while (e < g.inOff(v + 1)) {
      val u = g.inAdj(e)
      if (inS(u)) { outDeg(u) -= 1; m -= 1; lowered(u) }
      e += 1
    }
  }
}

/** [x,y]-core peeling on a driver-local digraph.
  *
  * The [x,y]-core of G is the largest pair (S,T) such that every u∈S has at
  * least x out-neighbours in T and every v∈T has at least y in-neighbours
  * in S. Valid pairs are closed under union, so the maximal core is unique
  * and is computed by iteratively deleting violators (worklist-based, exact)
  * through [[PeelState]].
  *
  * Both core engines peel with it (``LocalCoreEngine`` directly,
  * ``SparkCoreEngine`` for every core within its local cutoff), the
  * BSApprox baseline runs its local rounds as cores of it, and the Spark
  * implementation (``XYCore``) is tested against it.
  */
object LocalXYCore {

  /** Peel g down to its [x,y]-core: ``g`` restricted to the core's edges
    * (see [[LocalDigraph.restrict]]). Requires x ≥ 1 and y ≥ 1.
    */
  def peel(g: LocalDigraph, x: Int, y: Int): LocalDigraph = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val st = new PeelState(g)
    // worklist of removals: v*2 from the S side, v*2+1 from the T side; a
    // side is pushed once, when its degree first falls below the threshold
    val stack = new Array[Int](2 * g.n)
    var top = 0
    var v = 0
    while (v < g.n) {
      if (st.inS(v) && st.outDeg(v) < x) { stack(top) = v * 2; top += 1 }
      if (st.inT(v) && st.inDeg(v) < y) { stack(top) = v * 2 + 1; top += 1 }
      v += 1
    }
    val loweredT: Int => Unit = w => if (st.inDeg(w) == y - 1) { stack(top) = w * 2 + 1; top += 1 }
    val loweredS: Int => Unit = w => if (st.outDeg(w) == x - 1) { stack(top) = w * 2; top += 1 }
    while (top > 0) {
      top -= 1
      val code = stack(top)
      if (code % 2 == 0) st.dropS(code / 2, loweredT) else st.dropT(code / 2, loweredS)
    }
    g.restrict(st.inS, st.inT)
  }
}
