package repro.approx

import org.apache.spark.sql.DataFrame
import repro.core.XYCore
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

  /** Local reference with identical semantics (tests, small graphs). */
  def runLocal(g: LocalDigraph, eps: Double = 1.0, gridFactor: Double = 2.0): ApproxResult = {
    val t0 = System.nanoTime()
    if (g.m == 0)
      return ApproxResult("BSApprox*", 0.0, 0, 0, (System.nanoTime() - t0) / 1000000L, "empty")
    val nS0 = (0 until g.n).count(g.outDeg(_) > 0)
    val nT0 = (0 until g.n).count(g.inDeg(_) > 0)
    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    var a = 1.0 / nT0
    while (a <= nS0 * gridFactor) {
      val inS = Array.tabulate(g.n)(g.outDeg(_) > 0)
      val inT = Array.tabulate(g.n)(g.inDeg(_) > 0)
      var live = true
      while (live) {
        val outd = new Array[Long](g.n)
        val ind = new Array[Long](g.n)
        var m = 0L
        var i = 0
        while (i < g.m) {
          if (inS(g.src(i)) && inT(g.dst(i))) { outd(g.src(i)) += 1; ind(g.dst(i)) += 1; m += 1 }
          i += 1
        }
        val sN = (0 until g.n).count(v => inS(v) && outd(v) > 0).toLong
        val tN = (0 until g.n).count(v => inT(v) && ind(v) > 0).toLong
        if (sN == 0 || tN == 0 || m == 0) live = false
        else {
          val d = DigraphOps.density(m, sN, tN)
          if (d > best) { best = d; bestS = sN; bestT = tN }
          if (sN.toDouble >= a * tN) {
            val thr = (1.0 + eps) * m / sN
            var removed = false
            (0 until g.n).foreach { v =>
              if (inS(v)) {
                if (outd(v) == 0 || outd(v) <= thr) { inS(v) = false; removed = true }
              }
            }
            if (!removed) live = false
          } else {
            val thr = (1.0 + eps) * m / tN
            var removed = false
            (0 until g.n).foreach { v =>
              if (inT(v)) {
                if (ind(v) == 0 || ind(v) <= thr) { inT(v) = false; removed = true }
              }
            }
            if (!removed) live = false
          }
        }
      }
      a *= gridFactor
    }
    ApproxResult("BSApprox*", best, bestS, bestT, (System.nanoTime() - t0) / 1000000L,
                 f"local eps=$eps%.1f")
  }
}
