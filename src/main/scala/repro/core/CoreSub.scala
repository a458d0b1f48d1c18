package repro.core

import repro.graph.{DigraphOps, LocalDigraph}

/** A pair-subgraph (S, T, E(S,T)) materialized on the driver.
  *
  * This is the common currency between the core decomposition (which
  * produces [x,y]-cores as (S,T) pairs) and the flow machinery (which
  * builds a network over exactly such a pair). ``g`` holds exactly the
  * edges E(S,T): S is the vertices with an out-edge, T those with an
  * in-edge. Original ids are read back only by [[candidate]].
  */
final case class CoreSub(g: LocalDigraph) {
  lazy val sSize: Int = CoreSub.count(g.hasOut)
  lazy val tSize: Int = CoreSub.count(g.hasIn)
  def m: Int            = g.m
  def isEmpty: Boolean  = m == 0
  def nonEmpty: Boolean = !isEmpty

  def candidate: Candidate = Candidate(g.idsOf(g.hasOut), g.idsOf(g.hasIn), m.toLong)
}

object CoreSub {
  val empty: CoreSub = CoreSub(LocalDigraph.fromPairs(Nil))

  private def count(mask: Array[Boolean]): Int = {
    var c = 0
    var i = 0
    while (i < mask.length) { if (mask(i)) c += 1; i += 1 }
    c
  }
}

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
  def surrogate(a: Double): Double = DigraphOps.surrogate(m, sSize.toLong, tSize.toLong, a)
}
