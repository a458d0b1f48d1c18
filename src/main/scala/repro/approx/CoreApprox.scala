package repro.approx

import repro.core.{Candidate, CoreEngine, MaxCore}

/** Result of an approximation algorithm on one graph. */
final case class ApproxResult(algo: String,
                              density: Double,
                              sSize: Long,
                              tSize: Long,
                              millis: Long,
                              note: String = "") {
  def row: String = f"$algo%-12s ρ=$density%10.4f |S|=$sSize%7d |T|=$tSize%7d ${millis}%8d ms $note"
}

/** The paper's core-based approximation: return the [x,y]-core maximizing
  * x·y. Guarantees: ρ(core) ≥ √(x*·y*) and ρopt ≤ 2√(x*·y*), hence a
  * 2-approximation — computed purely by iterative core decomposition,
  * with no flow computations at all.
  */
object CoreApprox {

  final case class Detail(result: ApproxResult, x: Int, y: Int, candidate: Candidate)

  def run(engine: CoreEngine): Detail = {
    val t0 = System.nanoTime()
    MaxCore.maxXY(engine) match {
      case None =>
        val ms = (System.nanoTime() - t0) / 1000000L
        Detail(ApproxResult("CoreApprox", 0.0, 0, 0, ms, "empty graph"), 0, 0, Candidate.empty)
      case Some(mx) =>
        val c  = mx.candidate()
        val ms = (System.nanoTime() - t0) / 1000000L
        Detail(
          ApproxResult("CoreApprox", c.density, c.sSize.toLong, c.tSize.toLong, ms,
                       s"[x*,y*]=[${mx.x},${mx.y}]"),
          mx.x, mx.y, c)
    }
  }
}
