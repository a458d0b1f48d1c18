package repro.approx

import scala.collection.mutable.PriorityQueue
import repro.core.PeelState
import repro.graph.{DigraphOps, LocalDigraph}

/** KS/Charikar-style sequential peeling approximation (baseline).
  *
  * For each ratio a on a (1+ε) geometric grid over [1/|T₀|, |S₀|]: start
  * from S = all sources, T = all destinations; repeatedly delete the
  * minimum-out-degree vertex of S when |S| ≥ a·|T|, else the minimum-
  * in-degree vertex of T (the lowest index among ties); track the best true
  * density ρ(S,T) seen. This is the standard fixed-ratio peeling family
  * (2-approx per exact ratio, 2(1+ε)-style over the grid); it is sequential
  * by nature, so it runs on the driver — exactly the kind of baseline the
  * paper's core-based algorithms outperform.
  */
object PeelApprox {

  def run(g: LocalDigraph, eps: Double = 0.5): ApproxResult = {
    require(eps > 0, s"need eps > 0 (the ratio grid must grow), got $eps")
    val t0 = System.nanoTime()
    if (g.m == 0) {
      return ApproxResult("PeelApprox", 0.0, 0, 0, (System.nanoTime() - t0) / 1000000L, "empty")
    }
    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    var a = 1.0 / g.tSize
    val hi = g.sSize.toDouble
    while (a <= hi * (1 + eps)) {
      val (d, s, t) = peelAtRatio(g, a)
      if (d > best) { best = d; bestS = s; bestT = t }
      a *= (1.0 + eps)
    }
    val ms = (System.nanoTime() - t0) / 1000000L
    ApproxResult("PeelApprox", best, bestS, bestT, ms, f"eps=$eps%.2f")
  }

  /** One fixed-ratio peel; returns (best density, |S|, |T| at the best step). */
  private[approx] def peelAtRatio(g: LocalDigraph, a: Double): (Double, Long, Long) = {
    val st = new PeelState(g)
    // lazy min-heaps of (degree << 32 | vertex): the minimum degree, then the
    // lowest index; an entry is stale once its vertex left or its degree fell
    val sHeap = PriorityQueue.empty[Long](Ordering.Long.reverse)
    val tHeap = PriorityQueue.empty[Long](Ordering.Long.reverse)
    def key(deg: Int, v: Int): Long = (deg.toLong << 32) | v
    val pushS: Int => Unit = u => sHeap.enqueue(key(st.outDeg(u), u))
    val pushT: Int => Unit = v => tHeap.enqueue(key(st.inDeg(v), v))
    for (v <- 0 until g.n) {
      if (st.inS(v)) pushS(v)
      if (st.inT(v)) pushT(v)
    }
    def popMin(heap: PriorityQueue[Long], alive: Array[Boolean], deg: Array[Int]): Int = {
      var k = heap.dequeue()
      while (!alive(k.toInt) || deg(k.toInt) != (k >>> 32).toInt) k = heap.dequeue()
      k.toInt
    }
    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    def record(): Unit = {
      val d = DigraphOps.density(st.m, st.sSize.toLong, st.tSize.toLong)
      if (d > best) { best = d; bestS = st.sSize.toLong; bestT = st.tSize.toLong }
    }
    record()
    while (st.sSize > 0 && st.tSize > 0 && st.m > 0) {
      if (st.sSize.toDouble >= a * st.tSize) st.dropS(popMin(sHeap, st.inS, st.outDeg), pushT)
      else st.dropT(popMin(tHeap, st.inT, st.inDeg), pushS)
      record()
    }
    (best, bestS, bestT)
  }
}
