package repro.flow

/** Dinic max-flow over integer capacities, with min-cut extraction.
  *
  * The exact DDS algorithm needs a min s-t cut per density probe; the
  * paper's point is that core pruning makes these instances small, so a
  * driver-local solver is the right substrate. Capacities are `Long`s
  * (the density network scales its rational capacities to integers), so
  * flows and cuts are exact; the caller bounds the total capacity below
  * 2⁶³.
  *
  * The network is given whole: edge i runs ``eTail(i)``→``eHead(i)`` with
  * capacity ``eCap(i)`` and already carries ``eFlow(i)`` (0 ≤ flow ≤ cap),
  * a flow that must be conserved at every vertex but s and t. The
  * constructor lays the residual arcs out once in CSR (compressed sparse
  * row) order, grouped by tail, each arc with the index of its reverse,
  * and solves the max flow in place from the preloaded flow.
  */
final class Dinic(val n: Int, s: Int, t: Int,
                  eTail: Array[Int], eHead: Array[Int], eCap: Array[Long], eFlow: Array[Long]) {
  private val edges = eTail.length
  require(eHead.length == edges && eCap.length == edges && eFlow.length == edges,
          "edge arrays differ in length")

  // residual arcs in CSR order: arcs of u are off(u) until off(u+1)
  private val off  = new Array[Int](n + 1)
  private val head = new Array[Int](2 * edges)             // arc -> head vertex
  private val cap  = new Array[Long](2 * edges)            // arc -> residual capacity
  private val rev  = new Array[Int](2 * edges)             // arc -> its reverse arc

  /** Lays each edge out as two residual arcs grouped by tail, and returns
    * the preloaded flow's value out of s after checking it is conserved.
    */
  private def layout(): Long = {
    val excess = new Array[Long](n)
    var e = 0
    while (e < edges) {
      require(eCap(e) >= 0, s"negative capacity ${eCap(e)}")
      require(eFlow(e) >= 0 && eFlow(e) <= eCap(e), s"flow ${eFlow(e)} outside [0, ${eCap(e)}]")
      off(eTail(e) + 1) += 1; off(eHead(e) + 1) += 1
      excess(eTail(e)) -= eFlow(e); excess(eHead(e)) += eFlow(e)
      e += 1
    }
    var u = 0
    while (u < n) {
      require(u == s || u == t || excess(u) == 0, s"initial flow not conserved at $u")
      off(u + 1) += off(u); u += 1
    }
    val next = java.util.Arrays.copyOf(off, n)
    e = 0
    while (e < edges) {
      val a = next(eTail(e)); next(eTail(e)) += 1
      val b = next(eHead(e)); next(eHead(e)) += 1
      head(a) = eHead(e); cap(a) = eCap(e) - eFlow(e); rev(a) = b
      head(b) = eTail(e); cap(b) = eFlow(e); rev(b) = a
      e += 1
    }
    -excess(s)
  }

  private val level = new Array[Int](n)
  private val it    = new Array[Int](n)
  private val queue = new Array[Int](n)

  /** Levels: each vertex's residual distance to t, found by a BFS back
    * from t that stops as soon as s has one (false when s cannot reach t).
    * A DFS that steps only to a vertex one level closer to t then enters no
    * vertex that cannot reach t.
    */
  private def bfs(): Boolean = {
    java.util.Arrays.fill(level, -1)
    var qh = 0; var qt = 0
    queue(qt) = t; qt += 1; level(t) = 0
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = off(u)
      val end = off(u + 1)
      while (e < end) {
        val v = head(e)
        if (level(v) == -1 && cap(rev(e)) > 0) { // the residual arc v→u
          level(v) = level(u) + 1
          if (v == s) return true
          queue(qt) = v; qt += 1
        }
        e += 1
      }
    }
    false
  }

  // explicit DFS stack, one frame per level: node, flow left to route, flow routed
  private val stNode = new Array[Int](n)
  private val stRem  = new Array[Long](n)
  private val stRes  = new Array[Long](n)

  /** Routes at most ``pushed`` from s along level-graph arcs in current-arc
    * order, as a recursive DFS would. Iterative, so a level graph as deep as
    * the network cannot overflow the call stack.
    */
  private def dfs(pushed: Long): Long = {
    var top = 0
    stNode(0) = s; stRem(0) = pushed; stRes(0) = 0
    while (true) {
      val u = stNode(top)
      val end = off(u + 1)
      var descended = false
      while (u != t && !descended && it(u) < end && stRem(top) > 0) {
        val e = it(u)
        val v = head(e)
        if (cap(e) > 0 && level(v) == level(u) - 1) {
          top += 1
          stNode(top) = v; stRem(top) = math.min(stRem(top - 1), cap(e)); stRes(top) = 0
          descended = true
        } else it(u) = e + 1
      }
      if (!descended) {
        // frame done: its parent's current arc carries the d it routed
        val d = if (u == t) stRem(top) else stRes(top)
        if (top == 0) return d
        top -= 1
        val e = it(stNode(top))
        if (d > 0) {
          cap(e) -= d
          cap(rev(e)) += d
          stRes(top) += d
          stRem(top) -= d
        } else it(stNode(top)) = e + 1 // dead end; advance
      }
    }
    sys.error("unreachable")
  }

  /** The max flow's value from s to t, the preloaded flow included. The
    * flow is routed in place, so the arcs keep only their residual
    * capacities.
    */
  val value: Long = {
    var total = layout()
    while (bfs()) {
      System.arraycopy(off, 0, it, 0, n)
      var f = dfs(Long.MaxValue)
      while (f > 0) {
        total += f
        f = dfs(Long.MaxValue)
      }
    }
    total
  }

  /** Vertices reachable from s in the residual graph — the minimal min-cut
    * source side.
    */
  def sourceSide(): Array[Boolean] = {
    val seen = new Array[Boolean](n)
    var qh = 0; var qt = 0
    queue(qt) = s; qt += 1; seen(s) = true
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = off(u)
      while (e < off(u + 1)) {
        val v = head(e)
        if (cap(e) > 0 && !seen(v)) { seen(v) = true; queue(qt) = v; qt += 1 }
        e += 1
      }
    }
    seen
  }
}
