package repro.core

/** Staircase search over the [x,y]-core lattice.
  *
  * Feasibility (non-emptiness) is downward-closed in (x,y), and cores are
  * nested, so y_max(x) is non-increasing in x. ``maxXY`` walks x upward
  * and only searches a y-range when it could improve the best x·y found so
  * far — this is the paper's "find the core maximizing x·y without full
  * decomposition" idea, and powers both CoreApprox (2-approximation) and
  * the exact algorithm's initial bounds (ρopt ≤ 2√(x*·y*), ρ(core) ≥
  * √(x*·y*)).
  */
object MaxCore {

  /** The largest k in [lo, hi) that passes ``test``, given that k = lo
    * passes (it is not tested) and k = hi fails or is out of range, and that
    * the passing k are one run up from lo. Steps from one end by doubling
    * strides (up from lo, or down from hi when ``fromTop``) until a test
    * turns, then bisects.
    */
  private[repro] def lastTrue(lo: Long, hi: Long, fromTop: Boolean = false)(test: Long => Boolean): Long = {
    var loK = lo
    var hiK = hi
    // true iff k passes; moves the end it lands on
    def probe(k: Long): Boolean = { val ok = test(k); if (ok) loK = k else hiK = k; ok }
    // doubling phase, up from lo or down from hi, until a probe turns
    var step   = 1L
    var turned = false
    while (!turned && hiK - loK > 1) {
      turned = if (fromTop) probe(math.max(hiK - step, loK + 1)) else !probe(math.min(loK + step, hiK - 1))
      step *= 2
    }
    // bisection phase on (loK, hiK)
    while (hiK - loK > 1) probe(loK + (hiK - loK) / 2)
    loK
  }

  /** The core at the largest k in (lo, hi) whose ``probe(k, warm)`` is
    * non-empty, or ``from`` if there is none, given that k = lo is
    * non-empty with core ``from`` (lo = 0 and ``from`` = None: nothing
    * known) and that k = hi is empty or out of range, found by
    * [[lastTrue]]. Every probe is passed ``loCore``, the latest non-empty
    * core (None until there is one), which lies below it. With x fixed and
    * k = y this is y_max(x); with y fixed and k = x it is x_max(y), which
    * collapses the long constant-y plateaus of hub-dominated skylines to
    * O(log) probes.
    */
  private def maxFrom(lo: Int, from: Option[CoreHandle], hi: Long, fromTop: Boolean = false)(
      probe: (Int, Option[CoreHandle]) => Option[CoreHandle]): Option[CoreHandle] = {
    var loCore = from
    lastTrue(lo.toLong, hi, fromTop) { k =>
      val h = probe(k.toInt, loCore)
      loCore = h.orElse(loCore)
      h.nonEmpty
    }
    loCore
  }

  /** Bound of the x_max(y) search: no x bound is known up front. */
  private val XCap = Int.MaxValue / 2

  /** The core maximizing x·y (CoreApprox's witness); its handle's x and y
    * are the maximizing pair. None iff no edges.
    *
    * At each x the walk probes [x, yNeed], yNeed = ⌊B/x⌋ + 1 the smallest y
    * that beats the best product B. It peels no [x,1]-core to start from:
    * for small x those are barely smaller than the graph. Where [x, yNeed]
    * is non-empty, y_max(x) is found up from yNeed and its plateau extended
    * in x. Where it is empty, y_max(x) < yNeed is found exactly, down from
    * yNeed − 1 (the small high-y cores often sit inside a core the engine
    * already holds on the driver), and x jumps straight to B/y_max(x) + 1:
    * only x > B/y_max(x) can beat B, and y_max(x) bounds y_max(x') for
    * every x' ≥ x. All visited x then lie on the corners of the hyperbola
    * x·y = B, giving O(√(x*·y*)) core probes even on hub-dominated graphs
    * where x_max is huge (the jump is what makes CoreApprox's complexity
    * match the paper's √m regime). The walk ends at the first visited x
    * where even [x,1] is empty.
    */
  def maxXY(engine: CoreEngine): Option[CoreHandle] = {
    val c11 = engine.core(1, 1).getOrElse(return None)
    val yCap = math.min(engine.m, Int.MaxValue.toLong).toInt max 1
    var best = maxFrom(1, Some(c11), yCap + 1L)(engine.core(1, _, _)).get
    def bestXY: Long = best.x.toLong * best.y
    var lastY = best.y     // upper bound on y_max(x) for all later x; 0 ends the walk
    var x = 2L
    while (lastY > 0 && x <= Int.MaxValue) {
      val yNeed = (bestXY / x).toInt + 1 // smallest y that beats best; ≤ lastY by the jump below
      engine.core(x.toInt, yNeed) match {
        case None =>
          // y_max(x) < yNeed, found exactly: it bounds y_max(x') for every
          // x' ≥ x, so x jumps to B/y_max(x) + 1 below
          lastY = maxFrom(0, None, yNeed, fromTop = true)(engine.core(x.toInt, _, _)).fold(0)(_.y)
        case Some(seed) =>
          val cyx = maxFrom(yNeed, Some(seed), lastY + 1L)(engine.core(x.toInt, _, _)).get
          // extend the constant-y plateau to its largest x in O(log)
          best = maxFrom(x.toInt, Some(cyx), XCap + 1L)(engine.core(_, cyx.y, _)).get
          lastY = best.y
          x = best.x.toLong
      }
      if (lastY > 0) x = math.max(x + 1, bestXY / lastY + 1)
    }
    Some(best)
  }
}
