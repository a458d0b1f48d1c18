package repro.core

/** Staircase search over the [x,y]-core lattice.
  *
  * Feasibility (non-emptiness) is downward-closed in (x,y), and cores are
  * nested, so y_max(x) is non-increasing in x. ``maxXY`` walks x upward,
  * warm-starting each [x,1]-core from the [x−1,1]-core, and only searches
  * a y-range when it could improve the best x·y found so far — this is the
  * paper's "find the core maximizing x·y without full decomposition" idea,
  * and powers both CoreApprox (2-approximation) and the exact algorithm's
  * initial bounds (ρopt ≤ 2√(x*·y*), ρ(core) ≥ √(x*·y*)).
  */
object MaxCore {

  /** The core at the largest k ≤ cap whose ``probe(k, warm)`` is
    * non-empty, given a known non-empty core ``from`` at k = lo. Doubles,
    * then bisects; every probe is warm-started from the tightest known
    * non-empty core. With x fixed and k = y this is y_max(x); with y fixed
    * and k = x it is x_max(y), which collapses the long constant-y plateaus
    * of hub-dominated skylines to O(log) probes.
    */
  private def maxFrom(lo: Int, from: CoreHandle, cap: Int)
                     (probe: (Int, CoreHandle) => Option[CoreHandle]): CoreHandle = {
    var loK    = lo
    var loCore = from
    var hiK    = -1 // smallest known-empty k, -1 = unknown
    // doubling phase
    var step = 1L
    while (hiK == -1 && loK < cap) {
      val k = math.min(cap.toLong, loK + step).toInt
      probe(k, loCore) match {
        case Some(h) => loK = k; loCore = h; step *= 2
        case None    => hiK = k
      }
    }
    // bisection phase on (loK, hiK)
    while (hiK != -1 && hiK - loK > 1) {
      val mid = loK + (hiK - loK) / 2
      probe(mid, loCore) match {
        case Some(h) => loK = mid; loCore = h
        case None    => hiK = mid
      }
    }
    loCore
  }

  /** Cap of the x_max(y) search: no x bound is known up front. */
  private val XCap = Int.MaxValue / 2

  /** The core maximizing x·y (CoreApprox's witness); its handle's x and y
    * are the maximizing pair. None iff no edges.
    *
    * The x-walk does not advance one step at a time: to beat the current
    * best product B with y_max capped at lastY, only x > B/lastY can help,
    * so x jumps straight to B/lastY + 1. All visited x then lie on the
    * corners of the hyperbola x·y = B, giving O(√(x*·y*)) core probes even
    * on hub-dominated graphs where x_max is huge (the jump is what makes
    * CoreApprox's complexity match the paper's √m regime).
    */
  def maxXY(engine: CoreEngine): Option[CoreHandle] = {
    val c11 = engine.core(1, 1, None).getOrElse(return None)
    val yCap = math.min(engine.m, Int.MaxValue.toLong).toInt max 1
    var best = maxFrom(1, c11, yCap)((y, w) => engine.core(1, y, Some(w)))
    def bestXY: Long = best.x.toLong * best.y
    var lastY = best.y     // upper bound on y_max(x) for all later x
    var curX1 = c11        // an [x',1]-core with x' ≤ x (valid warm start under jumps)
    var x = 2L
    var done = false
    while (!done && x <= Int.MaxValue) {
      engine.core(x.toInt, 1, Some(curX1)) match {
        case None => done = true
        case Some(cx1) =>
          curX1 = cx1
          val yNeed = (bestXY / x).toInt + 1 // smallest y that beats best
          if (yNeed <= lastY) {
            engine.core(x.toInt, yNeed, Some(cx1)) match {
              case None =>
                lastY = math.min(lastY, yNeed - 1) // y_max(x) < yNeed, holds for x' ≥ x too
                if (lastY < 1) done = true
              case Some(seed) =>
                val cyx = maxFrom(yNeed, seed, lastY)((y, w) => engine.core(x.toInt, y, Some(w)))
                // extend the constant-y plateau to its largest x in O(log)
                best = maxFrom(x.toInt, cyx, XCap)((k, w) => engine.core(k, cyx.y, Some(w)))
                lastY = best.y
                x = best.x.toLong
            }
          }
          if (!done) x = math.max(x + 1, bestXY / lastY + 1)
      }
    }
    Some(best)
  }
}
