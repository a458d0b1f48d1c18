package repro.exact

import repro.core.{Candidate, CoreEngine, CoreHandle, MaxCore}
import repro.flow.DensityFlow

/** Exact directed densest subgraph discovery.
  *
  * Three modes sharing the same per-ratio machinery:
  *
  *  - ``Baseline``: the classical algorithm — enumerate every candidate
  *    ratio p/q (p,q ≤ n) and solve flows on the full graph. O(n²) ratio
  *    probes; this is the algorithm the paper is orders of magnitude
  *    faster than.
  *  - ``DC``: divide-and-conquer over ratio space. After probing ratio a
  *    with exact surrogate optimum o_a, every ratio b with
  *    φ(a,b) ≥ o_a/ρ_best satisfies ρ*(b) ≤ o_a/φ(a,b) ≤ ρ_best, so the
  *    log-symmetric interval [a/r, a·r] (r = pruneRadius(o_a/ρ_best)) is
  *    pruned; recursion continues outside, terminating when Stern–Brocot
  *    certifies an interval ratio-free. Flows still on the full graph.
  *  - ``CoreExact``: DC plus [x,y]-core pruning — the argmax at threshold
  *    g and ratio a lies in the [⌈g/(2√a)⌉, ⌈g·√a/2⌉]-core, so each flow
  *    network is built on that (shrinking) core; the search is seeded with
  *    the max-x·y core (CoreApprox), whose density is ≥ ρopt/2.
  *
  * Per ratio, the surrogate maximum is found by Dinkelbach iteration:
  * repeat min-cut at g = current candidate's surrogate until no strictly
  * better pair exists; the final candidate is the exact argmax (values
  * strictly increase and are finitely many).
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

    /** Exact surrogate argmax at ratio a; returns (o_a, argmax candidate). */
    def probeRatio(a: Double): (Double, Candidate) = {
      var cand = best
      var warm: Option[CoreHandle] = None
      var iter = 0
      while (true) {
        iter += 1
        require(iter <= 1000, s"Dinkelbach failed to converge at a=$a")
        val g = cand.surrogate(a)
        val sub = cfg.mode match {
          case Mode.CoreExact =>
            val x = math.max(1L, math.ceil(g / (2.0 * math.sqrt(a)) - 1e-9).toLong).toInt
            val y = math.max(1L, math.ceil(g * math.sqrt(a) / 2.0 - 1e-9).toLong).toInt
            val w = warm.filter(h => h.x <= x && h.y <= y)
            engine.core(x, y, w) match {
              case None    => return (g, cand)
              case Some(h) => warm = Some(h); h.sub()
            }
          case _ => full
        }
        flows += 1
        flowNodes += DensityFlow.networkNodes(sub)
        DensityFlow.bestAbove(sub, g, a) match {
          case None => return (g, cand)
          case Some(c2) =>
            cand = c2
            if (c2.density > best.density) best = c2
        }
      }
      sys.error("unreachable")
    }

    cfg.mode match {
      case Mode.Baseline =>
        val it = RatioUtils.candidateRatios(n.toInt)
        while (it.hasNext && !dnf) {
          if (overBudget) dnf = true
          else {
            probeRatio(it.next())
            probes += 1
          }
        }

      case Mode.DC | Mode.CoreExact =>
        val stack = scala.collection.mutable.Stack[(Double, Double)]()
        stack.push((1.0 / (n + 1.0), n + 1.0))
        while (stack.nonEmpty && !dnf) {
          if (overBudget) { dnf = true }
          else {
            val (lo, hi) = stack.pop()
            RatioUtils.simplestBetween(lo, hi) match {
              case None => ()
              case Some((p, q)) if p > n || q > n => () // no candidate ratio inside
              case Some((p, q)) =>
                val a = p.toDouble / q
                val (oA, _) = probeRatio(a)
                probes += 1
                val theta = math.min(1.0, oA / math.max(best.density, 1e-12))
                val r = RatioUtils.pruneRadius(theta)
                val rSafe = math.max(r, 1.0 + 1.0 / (2.0 * n * math.max(p, q)))
                if (a / rSafe > lo) stack.push((lo, a / rSafe))
                if (a * rSafe < hi) stack.push((a * rSafe, hi))
            }
          }
        }
    }

    Result(best, probes, flows, flowNodes.result(), elapsedMs, dnf, maxXYInfo)
  }
}
