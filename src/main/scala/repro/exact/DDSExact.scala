package repro.exact

import repro.core.{Candidate, CoreEngine, CoreHandle, MaxCore}
import repro.flow.DensityFlow

/** Exact directed densest subgraph discovery.
  *
  * Three modes sharing one ratio search and the same per-ratio machinery:
  *
  *  - ``DC``: divide-and-conquer over ratio space. After probing ratio a
  *    with exact surrogate optimum o_a, every ratio b with
  *    φ(a,b) ≥ o_a/ρ_best satisfies ρ*(b) ≤ o_a/φ(a,b) ≤ ρ_best, so the
  *    log-symmetric interval [a/r, a·r] (r = pruneRadius(o_a/ρ_best)) is
  *    pruned; recursion continues outside, terminating when Stern–Brocot
  *    certifies an interval ratio-free. Flows still on the full graph.
  *  - ``Baseline``: the classical algorithm — every candidate ratio p/q
  *    (p,q ≤ n), solved by flows on the full graph. It is DC with radius
  *    r = 1, which prunes nothing: the open intervals left and right of a
  *    probe exclude only the probe, so each ratio is probed exactly once.
  *    O(n²) ratio probes; this is the algorithm the paper is orders of
  *    magnitude faster than.
  *  - ``CoreExact``: DC plus [x,y]-core pruning — at ratio a = p/q, the
  *    argmax above the level e/d lies in the [⌈e·q/d⌉, ⌈e·p/d⌉]-core, so
  *    each flow network is built on that (shrinking) core; the search is
  *    seeded with the max-x·y core (CoreApprox), whose density is ≥ ρopt/2.
  *
  * Per ratio a = p/q, the surrogate maximum is found by Dinkelbach
  * iteration on the level E/(q|S| + p|T|), which the surrogate is 2√(pq)
  * times: repeat min-cut at e/d = the current candidate's level until no
  * pair has a strictly higher one. Levels are compared in integers, so the
  * final candidate is the exact argmax.
  */
object DDSExact {

  sealed trait Mode
  object Mode {
    case object Baseline  extends Mode
    case object DC        extends Mode
    case object CoreExact extends Mode
  }

  final case class Config(mode: Mode = Mode.CoreExact,
                          wallBudgetMs: Long = Long.MaxValue)

  final case class Result(best: Candidate,
                          probes: Int,
                          flows: Int,
                          flowNodes: Vector[Int],
                          elapsedMs: Long,
                          dnf: Boolean,
                          maxXY: Option[(Int, Int)]) {
    def density: Double = best.density
  }

  def run(engine: CoreEngine, cfg: Config = Config()): Result = {
    val start = System.nanoTime()
    def elapsedMs = (System.nanoTime() - start) / 1000000L

    val full = engine.fullSub()
    if (full.isEmpty)
      return Result(Candidate.empty, 0, 0, Vector.empty, elapsedMs, dnf = false, None)

    val n = engine.n
    var probes = 0
    var flows = 0
    val flowNodes = Vector.newBuilder[Int]
    var dnf = false

    // ---- seed ----
    var maxXYInfo: Option[(Int, Int)] = None
    var best = Candidate(Array(full.ids(full.src(0))), Array(full.ids(full.dst(0))), 1L) // density 1 ≤ ρopt
    if (cfg.mode == Mode.CoreExact) {
      MaxCore.maxXY(engine).foreach { mx =>
        maxXYInfo = Some((mx.x, mx.y))
        val c = mx.candidate()
        if (c.density > best.density) best = c
      }
    }

    def overBudget: Boolean = elapsedMs > cfg.wallBudgetMs

    /** Exact surrogate argmax at ratio a = p/q. Each step moves to a pair of
      * strictly higher level E/(q|S| + p|T|) (``bestAbove`` checks it
      * exactly), and the levels are finitely many, so the loop ends.
      */
    def probeRatio(p: Long, q: Long): Candidate = {
      var cand = best
      var warm: Option[CoreHandle] = None
      while (true) {
        val e = cand.m
        val d = q * cand.sSize + p * cand.tSize
        val sub = cfg.mode match {
          case Mode.CoreExact =>
            // the argmax above level e/d lies in the [⌈e·q/d⌉, ⌈e·p/d⌉]-core
            val x = ((e * q + d - 1) / d).toInt
            val y = ((e * p + d - 1) / d).toInt
            val w = warm.filter(h => h.x <= x && h.y <= y)
            engine.core(x, y, w) match {
              case None    => return cand
              case Some(h) => warm = Some(h); h.sub()
            }
          case _ => full
        }
        flows += 1
        flowNodes += DensityFlow.networkNodes(sub)
        DensityFlow.bestAbove(sub, e, d, p, q) match {
          case None => return cand
          case Some(c2) =>
            cand = c2
            if (c2.density > best.density) best = c2
        }
      }
      sys.error("unreachable")
    }

    val stack = scala.collection.mutable.Stack[(Double, Double)]()
    stack.push((1.0 / (n + 1.0), n + 1.0))
    while (stack.nonEmpty && !dnf) {
      if (overBudget) { dnf = true }
      else {
        val (lo, hi) = stack.pop()
        RatioUtils.simplestBetween(lo, hi, n).foreach { case (p, q) =>
          val a = p.toDouble / q
          val oA = probeRatio(p, q).surrogate(a)
          probes += 1
          // (lo, a/r) and (a·r, hi) are open, so neither holds p/q again
          val r = if (cfg.mode == Mode.Baseline) 1.0
                  else RatioUtils.pruneRadius(math.min(1.0, oA / best.density))
          if (a / r > lo) stack.push((lo, a / r))
          if (a * r < hi) stack.push((a * r, hi))
        }
      }
    }

    Result(best, probes, flows, flowNodes.result(), elapsedMs, dnf, maxXYInfo)
  }
}
