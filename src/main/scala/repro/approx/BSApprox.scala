package repro.approx

import repro.core.{LocalXYCore, PairState, SparkCoreEngine, XYCore}
import repro.graph.{DigraphOps, LocalDigraph}

/** Bahmani-style batch-peeling approximation (the natural dataflow
  * baseline: the original was designed for MapReduce).
  *
  * For each ratio a on a geometric grid: start with S = sources,
  * T = destinations; each round removes, from the side chosen by comparing
  * |S| to a·|T|, every vertex whose degree is ≤ (1+ε)·(average degree of
  * that side). A constant fraction of the side disappears per round, so
  * rounds are O(log n). Tracks the best true density over all intermediate
  * states.
  *
  * Both versions run one round loop over a [[PairState]], each round a
  * core of the previous round's pair: dropping every S vertex with
  * out-degree ≤ thr is the [⌊thr⌋+1, 1]-core, since dropping S vertices
  * lowers no S degree and only strands T vertices of in-degree 0 (T rounds
  * are symmetric). ``run`` peels it with [[XYCore.peel]] in Spark,
  * ``runLocal`` with [[LocalXYCore.peel]] on the driver.
  */
object BSApprox {

  /** Spark implementation over ``engine``'s cached canonical edges, with
    * no copy of its own: the loop starts from the whole graph's degrees
    * that the engine keeps (one [[repro.graph.EdgeScan.allDegrees]] pass,
    * if nothing read them yet) and peels ``engine.base`` with no local
    * cutoff, so each later round is one [[repro.graph.EdgeScan.degrees]]
    * pass over the cached edges. ``wallBudgetMs``: stop (marking the note)
    * when exceeded — the baseline being slow on large graphs is part of
    * the reproduced story, not a failure.
    */
  def run(engine: SparkCoreEngine, eps: Double = 1.0, gridFactor: Double = 2.0,
          wallBudgetMs: Long = Long.MaxValue): ApproxResult = {
    requireParams(eps, gridFactor)
    val t0 = System.nanoTime()
    rounds("BSApprox", f"eps=$eps%.1f grid=$gridFactor%.1f", Left(engine.allDegrees),
           eps, gridFactor, wallBudgetMs, t0)((p, x, y) => XYCore.peel(engine.base, x, y, p))
  }

  /** Local version with identical semantics (tests, small graphs): the
    * loop starts from ``g`` and every round stays on the driver.
    */
  def runLocal(g: LocalDigraph, eps: Double = 1.0, gridFactor: Double = 2.0): ApproxResult = {
    requireParams(eps, gridFactor)
    rounds("BSApprox*", f"local eps=$eps%.1f", Right(g), eps, gridFactor, Long.MaxValue,
           System.nanoTime())(localRound)
  }

  /** A batch round on the driver: the peel of a Right pair. */
  private[approx] def localRound(p: PairState, x: Int, y: Int): PairState = p.map(LocalXYCore.peel(_, x, y))

  /** The batch rounds of every grid ratio from ``whole``, the graph's pair;
    * ``core(p, x, y)`` is the [x,y]-core of pair ``p``.
    */
  private[approx] def rounds(algo: String, note: String, whole: PairState, eps: Double, gridFactor: Double,
                             wallBudgetMs: Long, t0: Long)(core: (PairState, Int, Int) => PairState): ApproxResult = {
    def elapsed = (System.nanoTime() - t0) / 1000000L
    def sizes(p: PairState): (Long, Long, Long) =
      p.fold(d => (d.s.length.toLong, d.t.length.toLong, d.m), g => (g.sSize.toLong, g.tSize.toLong, g.m.toLong))
    val (sAll, tAll, mAll) = sizes(whole)
    if (mAll == 0) return ApproxResult(algo, 0.0, 0, 0, elapsed, "empty")

    var best = 0.0
    var bestS = 0L
    var bestT = 0L
    var budgetHit = false
    var a = 1.0 / tAll
    while (a <= sAll * gridFactor && !budgetHit) {
      var cur = whole
      var live = true
      while (live && !budgetHit) {
        if (elapsed > wallBudgetMs) budgetHit = true
        else {
          // every S vertex of a pair has an out-edge, every T vertex an in-edge
          val (sN, tN, m) = sizes(cur)
          val d = DigraphOps.density(m, sN, tN)
          if (d > best) { best = d; bestS = sN; bestT = tN }
          val sSide = sN.toDouble >= a * tN
          val thr = (1.0 + eps) * m / (if (sSide) sN else tN)
          val k = math.min(thr, Int.MaxValue - 1.0).toInt + 1 // degrees ≤ thr go; a degree is an Int
          val next = if (sSide) core(cur, k, 1) else core(cur, 1, k)
          val left = sizes(next)._3
          live = left > 0 && left < m
          cur = next
        }
      }
      a *= gridFactor
    }
    ApproxResult(algo, best, bestS, bestT, elapsed, (if (budgetHit) "budget hit; partial grid; " else "") + note)
  }

  /** A grid that does not grow, or a threshold below the average degree
    * (which can remove nothing, forever), would never finish.
    */
  private def requireParams(eps: Double, gridFactor: Double): Unit = {
    require(eps >= 0, s"need eps >= 0, got $eps")
    require(gridFactor > 1, s"need gridFactor > 1, got $gridFactor")
  }
}
