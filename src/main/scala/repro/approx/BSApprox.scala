package repro.approx

import repro.core.{LocalXYCore, PairState, SparkCoreEngine, XYCore}
import repro.graph.{DigraphOps, LocalDigraph}

/** Bahmani-style batch-peeling approximation (the natural dataflow
  * baseline: the original was designed for MapReduce).
  *
  * For each ratio a on [[PeelApprox.ratioGrid]]'s geometric grid: start
  * with S = sources, T = destinations; each round removes, from the side
  * chosen by comparing |S| to a·|T|, every vertex whose degree is
  * ≤ (1+ε)·(average degree of that side). A constant fraction of the side
  * disappears per round, so rounds are O(log n). Keeps the first densest
  * of all intermediate states.
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
    * pass over the cached edges. ``wallBudgetMs``: stop (marking the
    * budget hit) when exceeded — the baseline being slow on large graphs is
    * part of the reproduced story, not a failure.
    */
  def run(engine: SparkCoreEngine, eps: Double = 1.0, gridFactor: Double = 2.0,
          wallBudgetMs: Long = Long.MaxValue): ApproxResult = {
    requireParams(eps, gridFactor)
    rounds(Left(engine.allDegrees), eps, gridFactor, wallBudgetMs)((p, x, y) => XYCore.peel(engine.base, x, y, p))
  }

  /** Local version with identical semantics (tests, small graphs): the
    * loop starts from ``g`` and every round stays on the driver.
    */
  def runLocal(g: LocalDigraph, eps: Double = 1.0, gridFactor: Double = 2.0): ApproxResult = {
    requireParams(eps, gridFactor)
    rounds(Right(g), eps, gridFactor, Long.MaxValue)(localRound)
  }

  /** A batch round on the driver: the peel of a Right pair. */
  private[approx] def localRound(p: PairState, x: Int, y: Int): PairState = p.map(LocalXYCore.peel(_, x, y))

  /** The batch rounds of every grid ratio from ``whole``, the graph's pair;
    * ``core(p, x, y)`` is the [x,y]-core of pair ``p``.
    */
  private[approx] def rounds(whole: PairState, eps: Double, gridFactor: Double, wallBudgetMs: Long)
                            (core: (PairState, Int, Int) => PairState): ApproxResult = {
    val t0 = System.nanoTime()
    def sizes(p: PairState): (Long, Long, Long) =
      p.fold(d => (d.s.length.toLong, d.t.length.toLong, d.m), g => (g.sSize.toLong, g.tSize.toLong, g.m.toLong))
    val (sAll, tAll, _) = sizes(whole)
    var budgetHit = false
    // (density, |S|, |T|) of each round's pair at ratio a, from the whole
    // graph's until a round removes nothing or the budget runs out
    def pairs(a: Double): Iterator[(Double, Long, Long)] =
      Iterator.unfold(Option(whole)) {
        case None => None
        case Some(cur) =>
          budgetHit = (System.nanoTime() - t0) / 1000000L > wallBudgetMs
          Option.when(!budgetHit) {
            // every S vertex of a pair has an out-edge, every T vertex an in-edge
            val (sN, tN, m) = sizes(cur)
            val sSide = sN.toDouble >= a * tN
            val thr = (1.0 + eps) * m / (if (sSide) sN else tN)
            val k = math.min(thr, Int.MaxValue - 1.0).toInt + 1 // degrees ≤ thr go; a degree is an Int
            val next = if (sSide) core(cur, k, 1) else core(cur, 1, k)
            val left = sizes(next)._3
            ((DigraphOps.density(m, sN, tN), sN, tN), Option.when(left > 0 && left < m)(next))
          }
      }
    // lazy: a ratio's rounds run when the fold reaches them, so no ratio starts after a budget hit
    val grid = PeelApprox.ratioGrid(sAll, tAll, gridFactor).takeWhile(_ => !budgetHit)
    val (d, s, t) = PeelApprox.densest(grid.flatMap(pairs))
    ApproxResult(d, s, t, budgetHit)
  }

  /** A grid that does not grow, or a threshold below the average degree
    * (which can remove nothing, forever), would never finish.
    */
  private def requireParams(eps: Double, gridFactor: Double): Unit = {
    require(eps >= 0, s"need eps >= 0, got $eps")
    require(gridFactor > 1, s"need gridFactor > 1, got $gridFactor")
  }
}
