package repro.core

import repro.graph.DigraphOps

/** A pair-subgraph (S, T, E(S,T)) materialized on the driver.
  *
  * This is the common currency between the core decomposition (which
  * produces [x,y]-cores as (S,T) pairs) and the flow machinery (which
  * builds a network over exactly such a pair). ``s``/``t`` are original
  * vertex ids (sorted, distinct); ``edges`` are all edges of the host
  * graph from ``s`` into ``t``.
  */
final case class CoreSub(s: Array[Long], t: Array[Long], edges: Array[(Long, Long)]) {
  def sSize: Int      = s.length
  def tSize: Int      = t.length
  def m: Int          = edges.length
  def isEmpty: Boolean = s.isEmpty || t.isEmpty || edges.isEmpty
  def nonEmpty: Boolean = !isEmpty

  def density: Double = DigraphOps.density(m.toLong, sSize.toLong, tSize.toLong)
  def surrogate(a: Double): Double = DigraphOps.surrogate(m.toLong, sSize.toLong, tSize.toLong, a)
  def candidate: Candidate = Candidate(s, t, m.toLong)
}

object CoreSub {
  val empty: CoreSub = CoreSub(Array.empty, Array.empty, Array.empty)
}

/** A candidate (S,T) answer with its exact edge count — the unit tracked by
  * the exact search and returned by approximation algorithms, and the form
  * of a Spark-peeled core whose edges stay distributed.
  */
final case class Candidate(s: Array[Long], t: Array[Long], m: Long) {
  def sSize: Int = s.length
  def tSize: Int = t.length
  def isEmpty: Boolean  = s.isEmpty || t.isEmpty || m == 0
  def nonEmpty: Boolean = !isEmpty
  def density: Double = DigraphOps.density(m, sSize.toLong, tSize.toLong)
  def surrogate(a: Double): Double = DigraphOps.surrogate(m, sSize.toLong, tSize.toLong, a)
}
