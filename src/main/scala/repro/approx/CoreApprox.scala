package repro.approx

import repro.core.{Candidate, CoreEngine, MaxCore}

/** An approximation's answer on one graph: its density and side sizes, and
  * whether a wall budget cut the search short.
  */
final case class ApproxResult(density: Double, sSize: Long, tSize: Long, budgetHit: Boolean = false)

/** The paper's core-based approximation: return the [x,y]-core maximizing
  * x·y. Guarantees: ρ(core) ≥ √(x*·y*) and ρopt ≤ 2√(x*·y*), hence a
  * 2-approximation — computed purely by iterative core decomposition,
  * with no flow computations at all.
  */
object CoreApprox {

  final case class Detail(x: Int, y: Int, candidate: Candidate) {
    def result: ApproxResult = ApproxResult(candidate.density, candidate.sSize.toLong, candidate.tSize.toLong)
  }

  def run(engine: CoreEngine): Detail = MaxCore.maxXY(engine) match {
    case None     => Detail(0, 0, Candidate.empty)
    case Some(mx) => Detail(mx.x, mx.y, mx.candidate())
  }
}
