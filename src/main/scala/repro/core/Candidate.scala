package repro.core

import repro.graph.{DigraphOps, LocalDigraph}

/** A candidate (S,T) answer with its exact edge count — the unit tracked by
  * the exact search and returned by approximation algorithms, and the form
  * of a Spark-peeled core whose edges stay distributed. ``s`` and ``t`` are
  * original vertex ids, sorted and distinct.
  */
final case class Candidate(s: Array[Long], t: Array[Long], m: Long) {
  def sSize: Int = s.length
  def tSize: Int = t.length
  def isEmpty: Boolean  = s.isEmpty || t.isEmpty || m == 0
  def nonEmpty: Boolean = !isEmpty
  def density: Double = DigraphOps.density(m, sSize.toLong, tSize.toLong)

  /** ρ(this) > ρ(o), compared exactly as m²·|S_o|·|T_o| > m_o²·|S|·|T|. */
  def denserThan(o: Candidate): Boolean =
    nonEmpty && (o.isEmpty || BigInt(m) * m * o.sSize * o.tSize > BigInt(o.m) * o.m * sSize * tSize)
}

object Candidate {
  val empty: Candidate = Candidate(Array.empty, Array.empty, 0L)

  /** The driver-side core ``g`` as an answer: its S, T and edge count. */
  def of(g: LocalDigraph): Candidate = Candidate(g.idsOf(g.hasOut), g.idsOf(g.hasIn), g.m.toLong)
}
