package repro.exact

/** Ratio-space utilities for the interval search of the exact algorithms.
  *
  * Candidate |S|/|T| ratios are fractions p/q with 1 ≤ p,q ≤ n. The
  * interval search (DDSExact: DC and CoreExact prune around each probe,
  * Baseline prunes nothing) needs (a) "is there any candidate ratio
  * strictly inside (lo, hi)?" and (b) a probe point. Both come from the
  * Stern–Brocot tree: the *simplest* fraction in an interval is an ancestor
  * of every fraction in it, so it simultaneously minimizes numerator and
  * denominator — if the simplest fraction violates p,q ≤ n, no candidate
  * ratio lies in the interval. Baseline's all-ratio set is that search at
  * radius 1, so no ratio list is built here.
  */
object RatioUtils {

  /** The simplest fraction p/q with lo < p/q < hi, if it has p,q ≤ n; None
    * when no candidate ratio lies strictly inside. A fraction is compared
    * with the endpoints by its `Double` value p.toDouble / q, the value
    * callers probe, so an endpoint computed as that value excludes it.
    * Each step of the mediant descent grows p + q, so it takes at most 2n
    * steps.
    */
  def simplestBetween(lo: Double, hi: Double, n: Long): Option[(Long, Long)] = {
    // the mediant of the bounds lp/lq < rp/rq, starting from 0/1 and 1/0
    @annotation.tailrec
    def descend(lp: Long, lq: Long, rp: Long, rq: Long): Option[(Long, Long)] = {
      val (p, q) = (lp + rp, lq + rq)
      val v = p.toDouble / q
      if (p > n || q > n) None
      else if (v <= lo) descend(p, q, rp, rq)
      else if (v >= hi) descend(lp, lq, p, q)
      else Some((p, q))
    }
    if (lo < hi) descend(0L, 1L, 1L, 0L) else None
  }

  /** φ(a,b) = 2√(ab)/(a+b): the surrogate-vs-density factor; 1 iff a=b. */
  def phi(a: Double, b: Double): Double = 2.0 * math.sqrt(a * b) / (a + b)

  /** Radius r ≥ 1 such that φ(a,b) ≥ θ ⟺ b/a ∈ [1/r, r], for θ ∈ [0,1]
    * (infinite at θ = 0). Solving 2√r/(1+r) = θ gives √r = (1 + √(1−θ²))/θ.
    */
  def pruneRadius(theta: Double): Double = {
    if (theta >= 1.0) return 1.0
    val s = (1.0 + math.sqrt(1.0 - theta * theta)) / theta
    s * s
  }
}
