package repro.approx

import org.apache.spark.sql.DataFrame
import repro.core.{LocalXYCore, XYCore}
import repro.graph.{DigraphOps, LocalDigraph}

/** Bahmani-style batch-peeling approximation (the natural dataflow
  * baseline: the original was designed for MapReduce).
  *
  * For each ratio a on a geometric grid: start with S = sources,
  * T = destinations; each round removes, from the side chosen by comparing
  * |S| to a·|T|, every vertex whose degree is ≤ (1+ε)·(average degree of
  * that side). Each round is one Spark job (filter cached base edges by
  * broadcast alive sets, one exploded degree aggregation); a constant
  * fraction of the side disappears per round, so rounds are O(log n).
  * Tracks the best true density over all intermediate states.
  */
object BSApprox {

  /** Spark implementation. ``wallBudgetMs``: stop (marking the note) when
    * exceeded — the baseline being slow on large graphs is part of the
    * reproduced story, not a failure.
    */
  def run(edges0: DataFrame, eps: Double = 1.0, gridFactor: Double = 2.0,
          wallBudgetMs: Long = Long.MaxValue): ApproxResult = {
    requireParams(eps, gridFactor)
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1000000L
    val base = DigraphOps.canonicalize(edges0).cache()
    val m0 = base.count()
    if (m0 == 0) return ApproxResult("BSApprox", 0.0, 0, 0, elapsed, "empty")
    val nS0 = base.select("src").distinct().count()
    val nT0 = base.select("dst").distinct().count()

    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    var budgetHit = false

    var a = 1.0 / nT0
    val hi = nS0.toDouble
    while (a <= hi * gridFactor && !budgetHit) {
      var sAlive: Array[Long] = null
      var tAlive: Array[Long] = null
      var live = true
      while (live && !budgetHit) {
        if (elapsed > wallBudgetMs) budgetHit = true
        else {
          val cur = if (sAlive == null) base else DigraphOps.pairSubgraph(base, sAlive, tAlive)
          val rows = XYCore.degreeRows(cur)
          val sDeg = rows.filter(_._2 == 0)
          val tDeg = rows.filter(_._2 == 1)
          if (sDeg.isEmpty || tDeg.isEmpty) live = false
          else {
            val m = sDeg.map(_._3).sum
            val sN = sDeg.length.toLong
            val tN = tDeg.length.toLong
            val d = DigraphOps.density(m, sN, tN)
            if (d > best) { best = d; bestS = sN; bestT = tN }
            if (sN.toDouble >= a * tN) {
              val thr = (1.0 + eps) * m / sN
              val keep = sDeg.filter(_._3 > thr).map(_._1)
              sAlive = keep
              tAlive = tDeg.map(_._1)
              if (keep.isEmpty) live = false
            } else {
              val thr = (1.0 + eps) * m / tN
              val keep = tDeg.filter(_._3 > thr).map(_._1)
              tAlive = keep
              sAlive = sDeg.map(_._1)
              if (keep.isEmpty) live = false
            }
          }
        }
      }
      a *= gridFactor
    }
    base.unpersist()
    val note = (if (budgetHit) "budget hit; partial grid; " else "") + f"eps=$eps%.1f grid=$gridFactor%.1f"
    ApproxResult("BSApprox", best, bestS, bestT, elapsed, note)
  }

  /** Local version with identical semantics (tests, small graphs). Each
    * batch round is one core of [[LocalXYCore.peel]] on the previous
    * round's pair: dropping every S vertex with out-degree ≤ thr is the
    * [⌊thr⌋+1, 1]-core, since dropping S vertices lowers no S degree and
    * only strands T vertices of in-degree 0 (T rounds are symmetric).
    */
  def runLocal(g: LocalDigraph, eps: Double = 1.0, gridFactor: Double = 2.0): ApproxResult = {
    requireParams(eps, gridFactor)
    val t0 = System.nanoTime()
    if (g.m == 0)
      return ApproxResult("BSApprox*", 0.0, 0, 0, (System.nanoTime() - t0) / 1000000L, "empty")
    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    var a = 1.0 / g.tSize
    while (a <= g.sSize * gridFactor) {
      var cur = g
      var live = true
      while (live) {
        val sN = cur.sSize.toLong
        val tN = cur.tSize.toLong
        val m = cur.m.toLong
        val d = DigraphOps.density(m, sN, tN)
        if (d > best) { best = d; bestS = sN; bestT = tN }
        val sSide = sN.toDouble >= a * tN
        val thr = (1.0 + eps) * m / (if (sSide) sN else tN)
        val k = math.min(thr, m.toDouble).toInt + 1 // degrees ≤ thr go; none exceeds m
        val next = if (sSide) LocalXYCore.peel(cur, k, 1) else LocalXYCore.peel(cur, 1, k)
        live = next.nonEmpty && next.m < cur.m
        cur = next
      }
      a *= gridFactor
    }
    ApproxResult("BSApprox*", best, bestS, bestT, (System.nanoTime() - t0) / 1000000L,
                 f"local eps=$eps%.1f")
  }

  /** A grid that does not grow, or a threshold below the average degree
    * (which can remove nothing, forever), would never finish.
    */
  private def requireParams(eps: Double, gridFactor: Double): Unit = {
    require(eps >= 0, s"need eps >= 0, got $eps")
    require(gridFactor > 1, s"need gridFactor > 1, got $gridFactor")
  }
}
