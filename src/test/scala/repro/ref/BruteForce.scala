package repro.ref

import repro.core.{Candidate, LocalXYCore}
import repro.graph.LocalDigraph

/** Exhaustive ground truth for tiny graphs.
  *
  * Enumerates every non-empty S,T ⊆ V (4ⁿ pairs pruned to 2ⁿ·2ⁿ bitmask
  * loops with popcount edge counting); n ≤ 16 enforced. The core-lattice
  * scans probe every (x,y) of a degree-bounded grid with the reference
  * peeler, sharing no code with ``MaxCore``'s staircase search.
  */
object BruteForce {

  /** The exact DDS: argmax of ρ(S,T) = |E(S,T)|/√(|S||T|). */
  def dds(g: LocalDigraph): Candidate = {
    require(g.n <= 16, s"brute force limited to n<=16, got ${g.n}")
    if (g.m == 0) return Candidate.empty
    val n = g.n
    val outMask = new Array[Int](n)
    var i = 0
    while (i < g.m) { outMask(g.src(i)) |= 1 << g.dst(i); i += 1 }
    var best = -1.0
    var bestS = 0
    var bestT = 0
    var bestE = 0L
    var s = 1
    val lim = 1 << n
    while (s < lim) {
      val sSize = Integer.bitCount(s)
      var t = 1
      while (t < lim) {
        var e = 0
        var u = s
        while (u != 0) {
          val v = Integer.numberOfTrailingZeros(u)
          e += Integer.bitCount(outMask(v) & t)
          u &= u - 1
        }
        val d = e / math.sqrt(sSize.toDouble * Integer.bitCount(t))
        if (d > best + 1e-12) { best = d; bestS = s; bestT = t; bestE = e.toLong }
        t += 1
      }
      s += 1
    }
    Candidate(maskIds(g, bestS), maskIds(g, bestT), bestE)
  }

  /** The maximum level E(S,T)/(q|S| + p|T|) over all pairs at ratio p/q, as
    * (E, q|S| + p|T|) of a maximizing pair, compared in integers; (0, 1)
    * for a graph with no edge. The surrogate ρ'_{p/q} is 2√(pq) times it.
    */
  def surrogateLevel(g: LocalDigraph, p: Long, q: Long): (Long, Long) = {
    require(g.n <= 14, s"limited to n<=14, got ${g.n}")
    val outMask = new Array[Int](g.n)
    for (i <- 0 until g.m) outMask(g.src(i)) |= 1 << g.dst(i)
    var best = (0L, 1L)
    for (s <- 1 until (1 << g.n); t <- 1 until (1 << g.n)) {
      val e = (0 until g.n).filter(u => (s & (1 << u)) != 0).map(u => Integer.bitCount(outMask(u) & t)).sum.toLong
      val d = q * Integer.bitCount(s) + p * Integer.bitCount(t)
      if (e * best._2 > best._1 * d) best = (e, d)
    }
    best
  }

  /** The (x,y) maximizing x·y among those with a non-empty [x,y]-core. */
  def maxXYGrid(g: LocalDigraph): Option[(Int, Int)] = {
    if (g.m == 0) return None
    val maxOut = (0 until g.n).map(g.outDeg).max
    val maxIn = (0 until g.n).map(g.inDeg).max
    var best: Option[(Int, Int)] = None
    var bestXY = 0L
    for (x <- 1 to maxOut; y <- 1 to maxIn) {
      if (x.toLong * y > bestXY && LocalXYCore.peel(g, x, y).nonEmpty) {
        bestXY = x.toLong * y
        best = Some((x, y))
      }
    }
    best
  }

  /** The skyline: every (x, y_max(x)) with a non-empty core that no other
    * non-empty (x', y') with x' ≥ x, y' ≥ y dominates, by increasing x.
    */
  def skyline(g: LocalDigraph): Seq[(Int, Int)] = {
    if (g.m == 0) return Nil
    val maxOut = (0 until g.n).map(g.outDeg).max
    val maxIn = (0 until g.n).map(g.inDeg).max
    val points = for {
      x <- 1 to maxOut
      y <- (1 to maxIn).filter(y => LocalXYCore.peel(g, x, y).nonEmpty).maxOption
    } yield (x, y)
    points.filterNot { case (x, y) =>
      points.exists { case (x2, y2) => x2 >= x && y2 >= y && (x2, y2) != (x, y) }
    }
  }

  private def maskIds(g: LocalDigraph, mask: Int): Array[Long] =
    (0 until g.n).filter(i => (mask & (1 << i)) != 0).map(g.ids).toArray
}
