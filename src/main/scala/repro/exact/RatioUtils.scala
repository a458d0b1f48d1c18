package repro.exact

/** Ratio-space utilities for the divide-and-conquer exact algorithm.
  *
  * Candidate |S|/|T| ratios are fractions p/q with 1 ≤ p,q ≤ n. The DC
  * recursion needs (a) "is there any candidate ratio strictly inside
  * (lo, hi)?" and (b) a good probe point. Both come from the Stern–Brocot
  * tree: the *simplest* fraction in an interval is an ancestor of every
  * fraction in it, so it simultaneously minimizes numerator and
  * denominator — if the simplest fraction violates p,q ≤ n, no candidate
  * ratio lies in the interval.
  */
object RatioUtils {

  /** The simplest fraction p/q with lo < p/q < hi, built digit-by-digit
    * from the continued-fraction expansion shared by the interval.
    * None if the interval is (numerically) empty.
    */
  def simplestBetween(lo: Double, hi: Double): Option[(Long, Long)] = {
    search(lo, hi) match {
      case ok @ Some((p, q)) =>
        val v = p.toDouble / q
        if (v > lo && v < hi) ok
        else if (v <= lo) // snapped search strayed below the true bound: skip past it
          search(v + 1e-10 * math.max(1.0, v), hi)
            .filter { case (p2, q2) => val w = p2.toDouble / q2; w > lo && w < hi }
        else
          search(lo, v - 1e-10 * math.max(1.0, v))
            .filter { case (p2, q2) => val w = p2.toDouble / q2; w > lo && w < hi }
      case None => None
    }
  }

  private def search(lo: Double, hi: Double): Option[(Long, Long)] = {
    if (!(lo < hi) || hi <= 0 || lo < 0) return None
    // Reciprocation accumulates floating error; values a hair away from an
    // integer boundary are snapped back so open-interval strictness is
    // decided at the original resolution (e.g. 1/(2.2-2) = 4.999...96 must
    // behave as the excluded endpoint 5, not as an interior point).
    def snap(v: Double): Double = {
      val r = math.rint(v)
      if (math.abs(v - r) < 1e-11 * math.max(1.0, math.abs(v))) r else v
    }
    var l = lo
    var h = hi
    val digits = scala.collection.mutable.ArrayBuffer.empty[Long]
    var result: Option[(Long, Long)] = None
    var guard = 0
    while (result.isEmpty) {
      guard += 1
      if (guard > 128) return None // numerically degenerate interval
      l = snap(l); h = snap(h)
      if (!(l < h)) return None
      val fl = math.floor(l)
      if (fl + 1 < h) {
        digits += fl.toLong + 1 // smallest integer strictly inside
        result = Some(fromDigits(digits.toSeq))
      } else {
        digits += fl.toLong
        val nl = 1.0 / (h - fl) // note the swap: reciprocation reverses order
        val nh = if (l - fl <= 0) Double.PositiveInfinity else 1.0 / (l - fl)
        if (nh.isInfinite) {
          if (nl > 1e17) return None
          digits += math.floor(snap(nl)).toLong + 1 // interval (nl, ∞)
          result = Some(fromDigits(digits.toSeq))
        } else {
          l = nl; h = nh
        }
      }
    }
    result.filter { case (p, q) => p >= 1 && q >= 1 }
  }

  /** Evaluate a continued fraction [a0; a1, a2, ...] to (p, q). */
  private def fromDigits(ds: Seq[Long]): (Long, Long) = {
    var p = 1L
    var q = 0L
    for (d <- ds.reverse) {
      val np = d * p + q
      q = p
      p = np
    }
    (p, q)
  }

  /** Every candidate ratio p/q (reduced, 1 ≤ p,q ≤ n), ascending, in O(1)
    * memory. The ratios up to 1 are the Farey sequence of order n. Each
    * ratio above 1 is the reciprocal of a Farey term below 1: walking the
    * terms p/q upward and emitting q/(q−p), the reciprocal of the mirrored
    * term (q−p)/q, yields them in ascending order.
    */
  def candidateRatios(n: Int): Iterator[Double] = {
    // consecutive Farey terms a/b < c/d of order n give the next one,
    // (k·c − a)/(k·d − b) with k = ⌊(n + b)/d⌋
    def farey: Iterator[(Int, Int)] =
      if (n < 1) Iterator.empty
      else
        Iterator.iterate((0, 1, 1, n)) { case (a, b, c, d) =>
          val k = (n + b) / d
          (c, d, k * c - a, k * d - b)
        }.map { case (_, _, c, d) => (c, d) }.takeWhile { case (p, q) => p <= q }
    farey.map { case (p, q) => p.toDouble / q } ++
      farey.filter { case (p, q) => p < q }.map { case (p, q) => q.toDouble / (q - p) }
  }

  /** φ(a,b) = 2√(ab)/(a+b): the surrogate-vs-density factor; 1 iff a=b. */
  def phi(a: Double, b: Double): Double = 2.0 * math.sqrt(a * b) / (a + b)

  /** Radius r ≥ 1 such that φ(a,b) ≥ θ ⟺ b/a ∈ [1/r, r], for θ ∈ (0,1].
    * Solving 2√r/(1+r) = θ gives √r = (1 + √(1−θ²))/θ.
    */
  def pruneRadius(theta: Double): Double = {
    if (theta >= 1.0) return 1.0
    if (theta <= 1e-9) return Double.MaxValue / 4
    val s = (1.0 + math.sqrt(1.0 - theta * theta)) / theta
    s * s
  }
}
