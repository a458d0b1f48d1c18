package repro.exact

import repro.core.{Candidate, CoreEngine, MaxCore}
import repro.flow.DensityFlow
import scala.collection.mutable

/** Exact directed densest subgraph discovery.
  *
  * Three modes sharing one ratio search and the same per-ratio machinery:
  *
  *  - ``DC``: divide-and-conquer over ratio space. A probe at ratio a
  *    with exact surrogate optimum o_a bounds every ratio b by
  *    ρ*(b) ≤ o_a/φ(a,b), φ(a,b) = 2√(ab)/(a+b), so b is pruned once that
  *    bound is ≤ ρ_best ([[Probe.prunes]], in integers), and [[walk]]
  *    skips the pruned ratios down the Stern–Brocot tree. Flows still on
  *    the full graph.
  *  - ``Baseline``: the classical algorithm — every candidate ratio p/q
  *    (p,q ≤ n), solved by flows on the full graph. It is the same walk
  *    with no pruning, which probes each ratio exactly once.
  *    O(n²) ratio probes; this is the algorithm the paper is orders of
  *    magnitude faster than.
  *  - ``CoreExact``: DC plus [x,y]-core pruning — at ratio a = p/q, the
  *    argmax above the level e/d lies in the [⌈e·q/d⌉, ⌈e·p/d⌉]-core, so
  *    each flow network is built on that (shrinking) core; the search is
  *    seeded with the max-x·y core (CoreApprox), whose density is ≥ ρopt/2.
  *    The engine picks where each core call starts from the cores it knows
  *    (see [[repro.core.CoreEngine.core]]), so a probe's first core is
  *    peeled from an earlier probe's core, not from the whole graph.
  *
  * Per ratio a = p/q, the surrogate maximum is found by Dinkelbach
  * iteration on the level E/(q|S| + p|T|), which the surrogate is 2√(pq)
  * times: repeat min-cut at e/d = the current candidate's level until no
  * pair has a strictly higher one. It starts from the known pair of highest
  * level at a: the best pair or an argmax of an earlier probe (often a
  * Stern–Brocot neighbour of a). Any start reaches the argmax level, so the
  * probe's o_a does not depend on the start (only the pairs passed on the
  * way, which may raise ρ_best, do); a higher start saves steps and, for
  * CoreExact, gives a smaller first core.
  * Levels, densities and the pruning test are compared in integers, so no
  * ratio is skipped by rounding.
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
                          flowNodes: Vector[Int],
                          dnf: Boolean,
                          maxXY: Option[(Int, Int)]) {
    def density: Double = best.density
    def flows: Int = flowNodes.size
  }

  /** A probe at ratio p/q whose surrogate argmax has level e/d, with
    * d = q|S| + p|T|, so o_a = 2√(pq)·e/d.
    */
  private[exact] final case class Probe(p: Long, q: Long, e: Long, d: Long) {

    /** Whether ratio u/v is pruned given the best pair so far:
      * ρ*(u/v) ≤ o_a/φ(a, u/v) ≤ ρ(best), squared and cleared of
      * denominators with φ² = 4puqv/(pv + uq)², as
      * e²·|S|·|T|·(pv + uq)² ≤ uv·E²·d². In b = u/v the difference of the
      * sides is a quadratic with positive leading term, so the pruned ratios
      * form one interval, which holds a itself (o_a ≤ ρ of the argmax ≤
      * ρ_best). 0/1 and 1/0 are never pruned (uv = 0).
      */
    def prunes(u: Long, v: Long, best: Candidate): Boolean = {
      val w = BigInt(p) * v + BigInt(u) * q
      BigInt(e) * e * best.sSize * best.tSize * w * w <= BigInt(u) * v * best.m * best.m * d * d
    }
  }

  /** Walks the Stern–Brocot tree over the ratios p/q with p, q ≤ n, calling
    * ``probe`` on each at most once until every one is probed or pruned by a
    * probe against ``best``; ``probe`` returns the probe to prune with, or
    * None to prune nothing. False if ``stop`` ended the walk first.
    */
  private[exact] def walk(n: Long, best: => Candidate, stop: => Boolean)
                         (probe: (Long, Long) => Option[Probe]): Boolean = {
    // The last k at which pr still prunes (fp + k·tp)/(fq + k·tq) with both
    // terms ≤ n. pr prunes k = 0, and its pruned ratios are an interval, so
    // its pruned k are too.
    def lastPruned(pr: Probe, fp: Long, fq: Long, tp: Long, tq: Long): Long = {
      val kMax = math.min(if (tp > 0) (n - fp) / tp else n, if (tq > 0) (n - fq) / tq else n)
      MaxCore.lastTrue(0L, kMax + 1)(k => pr.prunes(fp + k * tp, fq + k * tq, best))
    }

    // A node is the open interval between Stern–Brocot neighbours
    // lp/lq < rp/rq, each endpoint with the probe that prunes it, if any.
    // Every fraction inside is the mediant or one of its descendants, whose
    // terms are at least the mediant's, so a mediant past n ends the node.
    final case class Node(lp: Long, lq: Long, lPr: Option[Probe], rp: Long, rq: Long, rPr: Option[Probe])
    val stack = mutable.Stack(Node(0L, 1L, None, 1L, 0L, None))
    while (stack.nonEmpty) {
      if (stop) return false
      var nd = stack.pop()
      def fits = nd.lp + nd.rp <= n && nd.lq + nd.rq <= n
      // jump each endpoint past the run of mediants its probe prunes, until
      // neither prunes the mediant
      var moved = true
      while (moved && fits) {
        val k = nd.lPr.fold(0L)(lastPruned(_, nd.lp, nd.lq, nd.rp, nd.rq))
        nd = nd.copy(lp = nd.lp + k * nd.rp, lq = nd.lq + k * nd.rq)
        val j = nd.rPr.fold(0L)(lastPruned(_, nd.rp, nd.rq, nd.lp, nd.lq))
        nd = nd.copy(rp = nd.rp + j * nd.lp, rq = nd.rq + j * nd.lq)
        moved = k + j > 0
      }
      if (fits) {
        val (p, q) = (nd.lp + nd.rp, nd.lq + nd.rq)
        val pr = probe(p, q)
        stack.push(Node(nd.lp, nd.lq, nd.lPr, p, q, pr))
        stack.push(Node(p, q, pr, nd.rp, nd.rq, nd.rPr))
      }
    }
    true
  }

  def run(engine: CoreEngine, cfg: Config = Config()): Result = {
    val start = System.nanoTime()
    if (engine.m == 0) return Result(Candidate.empty, 0, Vector.empty, dnf = false, None)

    var probes = 0
    val flowNodes = Vector.newBuilder[Int]

    // ---- seed: CoreExact's max-x·y core (ρ ≥ ρopt/2), else one edge (ρ = 1) ----
    val seed = if (cfg.mode == Mode.CoreExact) MaxCore.maxXY(engine) else None
    lazy val full = engine.fullSub() // the flow graph of DC and Baseline only
    var best = seed.fold(Candidate(Array(full.ids(full.src(0))), Array(full.ids(full.dst(0))), 1L))(_.candidate())

    // the argmaxes earlier probes ended at, one per (E, |S|, |T|), for
    // later probes to start from
    val argmaxes = mutable.LinkedHashMap.empty[(Long, Int, Int), Candidate]

    /** Exact surrogate argmax at ratio a = p/q. It starts from the known pair
      * of highest level E/(q|S| + p|T|): the best pair or an earlier argmax.
      * Each step moves to a pair of strictly higher level (``bestAbove``
      * checks it exactly), and the levels are finitely many, so the loop ends.
      */
    def probeRatio(p: Long, q: Long): Candidate = {
      def dOf(c: Candidate): Long = q * c.sSize + p * c.tSize
      var cand = argmaxes.valuesIterator.foldLeft(best) { (a, c) =>
        if (BigInt(c.m) * dOf(a) > BigInt(a.m) * dOf(c)) c else a
      }
      while (true) {
        val e = cand.m
        val d = dOf(cand)
        val sub = cfg.mode match {
          case Mode.CoreExact =>
            // the argmax above level e/d lies in the [⌈e·q/d⌉, ⌈e·p/d⌉]-core
            val x = ((e * q + d - 1) / d).toInt
            val y = ((e * p + d - 1) / d).toInt
            // each step raises the level: the engine can start from the last step's core
            engine.core(x, y) match {
              case None    => return cand
              case Some(h) => h.sub()
            }
          case _ => full
        }
        flowNodes += DensityFlow.networkNodes(sub)
        DensityFlow.bestAbove(sub, e, d, p, q) match {
          case None => return cand
          case Some(c2) =>
            cand = c2
            if (c2.denserThan(best)) best = c2
        }
      }
      sys.error("unreachable")
    }

    val done = walk(engine.n, best, (System.nanoTime() - start) / 1000000L > cfg.wallBudgetMs) { (p, q) =>
      val c = probeRatio(p, q)
      probes += 1
      argmaxes.getOrElseUpdate((c.m, c.sSize, c.tSize), c)
      if (cfg.mode == Mode.Baseline) None else Some(Probe(p, q, c.m, q * c.sSize + p * c.tSize))
    }
    Result(best, probes, flowNodes.result(), dnf = !done, seed.map(mx => (mx.x, mx.y)))
  }
}
