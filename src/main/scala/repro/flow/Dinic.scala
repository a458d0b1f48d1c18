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
  * Arcs live in flat primitive arrays (head, residual capacity, next arc
  * of the same tail) that double when full; ``maxflow`` works on them in
  * place.
  */
final class Dinic(val n: Int) {
  private var arcs = 0                             // arcs added, reverses included
  private var head = new Array[Int](16)            // arc -> head vertex
  private var cap  = new Array[Long](16)           // arc -> residual capacity
  private var nxt  = new Array[Int](16)            // arc -> next arc of the same tail
  private val firstOf = Array.fill(n)(-1)          // vertex -> first arc
  private var solved = false

  /** Add a directed edge u→v with capacity c (reverse edge capacity 0).
    * Returns the forward edge index (even); reverse is index+1.
    */
  def addEdge(u: Int, v: Int, c: Long): Int = {
    require(c >= 0, s"negative capacity $c")
    if (arcs + 2 > head.length) {
      val len = 2 * head.length
      head = java.util.Arrays.copyOf(head, len)
      cap = java.util.Arrays.copyOf(cap, len)
      nxt = java.util.Arrays.copyOf(nxt, len)
    }
    val id = arcs
    head(id) = v; cap(id) = c; nxt(id) = firstOf(u); firstOf(u) = id
    head(id + 1) = u; cap(id + 1) = 0; nxt(id + 1) = firstOf(v); firstOf(v) = id + 1
    arcs += 2
    id
  }

  private val level = new Array[Int](n)
  private val it    = new Array[Int](n)
  private val queue = new Array[Int](n)

  private def bfs(s: Int, t: Int): Boolean = {
    java.util.Arrays.fill(level, -1)
    var qh = 0; var qt = 0
    queue(qt) = s; qt += 1; level(s) = 0
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = firstOf(u)
      while (e != -1) {
        val v = head(e)
        if (cap(e) > 0 && level(v) == -1) {
          level(v) = level(u) + 1
          queue(qt) = v; qt += 1
        }
        e = nxt(e)
      }
    }
    level(t) != -1
  }

  // explicit DFS stack, one frame per level: node, flow left to route, flow routed
  private val stNode = new Array[Int](n)
  private val stRem  = new Array[Long](n)
  private val stRes  = new Array[Long](n)

  /** Routes at most ``pushed`` from s along level-graph arcs in current-arc
    * order, as a recursive DFS would. Iterative, so a level graph as deep as
    * the network cannot overflow the call stack.
    */
  private def dfs(s: Int, t: Int, pushed: Long): Long = {
    var top = 0
    stNode(0) = s; stRem(0) = pushed; stRes(0) = 0
    while (true) {
      val u = stNode(top)
      var descended = false
      while (u != t && !descended && it(u) != -1 && stRem(top) > 0) {
        val e = it(u)
        val v = head(e)
        if (cap(e) > 0 && level(v) == level(u) + 1) {
          top += 1
          stNode(top) = v; stRem(top) = math.min(stRem(top - 1), cap(e)); stRes(top) = 0
          descended = true
        } else it(u) = nxt(e)
      }
      if (!descended) {
        // frame done: its parent's current arc carries the d it routed
        val d = if (u == t) stRem(top) else stRes(top)
        if (top == 0) return d
        top -= 1
        val e = it(stNode(top))
        if (d > 0) {
          cap(e) -= d
          cap(e ^ 1) += d
          stRes(top) += d
          stRem(top) -= d
        } else it(stNode(top)) = nxt(e) // dead end; advance
      }
    }
    sys.error("unreachable")
  }

  /** Compute the max flow from s to t. Call at most once: the flow is
    * routed in place, so the arcs keep only their residual capacities.
    */
  def maxflow(s: Int, t: Int): Long = {
    require(!solved, "maxflow already called on this network")
    solved = true
    var total = 0L
    while (bfs(s, t)) {
      var u = 0
      while (u < n) { it(u) = firstOf(u); u += 1 }
      var f = dfs(s, t, Long.MaxValue)
      while (f > 0) {
        total += f
        f = dfs(s, t, Long.MaxValue)
      }
    }
    total
  }

  /** Vertices reachable from s in the residual graph — the minimal min-cut
    * source side. Valid only after ``maxflow``.
    */
  def minCutSourceSide(s: Int): Array[Boolean] = {
    val seen = new Array[Boolean](n)
    var qh = 0; var qt = 0
    queue(qt) = s; qt += 1; seen(s) = true
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = firstOf(u)
      while (e != -1) {
        val v = head(e)
        if (cap(e) > 0 && !seen(v)) { seen(v) = true; queue(qt) = v; qt += 1 }
        e = nxt(e)
      }
    }
    seen
  }
}
