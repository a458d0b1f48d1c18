package repro.flow

import repro.core.Candidate
import repro.graph.LocalDigraph

/** The fixed-ratio density decision network.
  *
  * For a guess density g and ratio a, let c_S = g/(2√a) and c_T = g·√a/2.
  * A pair (S,T) with E(S,T) − c_S|S| − c_T|T| > 0 exists iff the min s-t cut
  * of the following vertex-only network (Goldberg 1984; Khuller–Saha 2009)
  * is strictly below m: one node α_u per u∈S and β_v per v∈T, arcs s→α_u
  * (cap d⁺(u)), α_u→t (cap c_S), α_u→β_v per edge (cap 1) and β_v→t
  * (cap c_T). A source side {α_u : u∈S'} ∪ {β_v : v∈T'} cuts
  * m − (E(S',T') − c_S|S'| − c_T|T'|), so the min-cut source side is the
  * objective's argmax.
  *
  * Extraction is self-verifying: the returned candidate's surrogate is
  * recomputed exactly from integer edge counts, so floating-point slop in
  * the flow cannot produce a wrong "improvement".
  */
object DensityFlow {

  // node layout: source, sink, then α_u = 2 + sIdx(u), β_v = 2 + |S| + tIdx(v)
  private val Source = 0
  private val Sink   = 1

  /** Size (node count) of the network that ``bestAbove`` would build. */
  def networkNodes(sub: LocalDigraph): Int = 2 + sub.sSize + sub.tSize

  /** Return the argmax of E − (g/2)(|S|/√a + √a|T|) over ``sub`` if its
    * surrogate strictly exceeds ``g``; None otherwise.
    */
  def bestAbove(sub: LocalDigraph, g: Double, a: Double): Option[Candidate] = {
    if (sub.isEmpty) return None
    val sIdx = number(sub.hasOut)
    val tIdx = number(sub.hasIn)
    val m = sub.m
    val dinic = network(sub, sIdx, tIdx, g, a)
    val flow = dinic.maxflow(Source, Sink)
    if (flow >= m - 1e-9 * (m + 1.0)) return None // min-cut == m: nothing above g
    val side = dinic.minCutSourceSide(Source)

    val tBase = 2 + sub.sSize
    val inS = new Array[Boolean](sub.n)
    val inT = new Array[Boolean](sub.n)
    var anyS = false
    var anyT = false
    var v = 0
    while (v < sub.n) {
      if (sIdx(v) >= 0 && side(2 + sIdx(v))) { inS(v) = true; anyS = true }
      if (tIdx(v) >= 0 && side(tBase + tIdx(v))) { inT(v) = true; anyT = true }
      v += 1
    }
    if (!anyS || !anyT) return None

    // Exact integer edge count between the selected sides.
    val cand = Candidate(sub.idsOf(inS), sub.idsOf(inT), sub.edgesBetween(inS, inT))
    if (cand.surrogate(a) > g * (1 + 1e-12) + 1e-12) Some(cand) else None
  }

  /** Max-flow value of the (g, a) network over ``sub``: m minus the
    * objective's maximum.
    */
  private[flow] def maxflow(sub: LocalDigraph, g: Double, a: Double): Double =
    if (sub.isEmpty) 0.0
    else network(sub, number(sub.hasOut), number(sub.hasIn), g, a).maxflow(Source, Sink)

  /** The vertex-only network for (g, a) over ``sub``, with S and T numbered
    * by ``sIdx`` and ``tIdx``: 2+|S|+|T| nodes, m+2|S|+|T| arcs.
    */
  private def network(sub: LocalDigraph, sIdx: Array[Int], tIdx: Array[Int], g: Double, a: Double): Dinic = {
    val ns = sub.sSize
    val tBase = 2 + ns
    val sCost = g / (2.0 * math.sqrt(a))
    val tCost = g * math.sqrt(a) / 2.0

    val outDeg = new Array[Int](ns)
    var k = 0
    while (k < sub.m) { outDeg(sIdx(sub.src(k))) += 1; k += 1 }

    val dinic = new Dinic(tBase + sub.tSize)
    var i = 0
    while (i < ns) {
      dinic.addEdge(Source, 2 + i, outDeg(i).toDouble)
      dinic.addEdge(2 + i, Sink, sCost)
      i += 1
    }
    var j = 0
    while (j < sub.tSize) { dinic.addEdge(tBase + j, Sink, tCost); j += 1 }
    k = 0
    while (k < sub.m) { dinic.addEdge(2 + sIdx(sub.src(k)), tBase + tIdx(sub.dst(k)), 1.0); k += 1 }
    dinic
  }

  /** Numbers the masked vertices 0, 1, ... in index order; -1 for the rest. */
  private def number(mask: Array[Boolean]): Array[Int] = {
    val idx = new Array[Int](mask.length)
    var next = 0
    var v = 0
    while (v < mask.length) {
      if (mask(v)) { idx(v) = next; next += 1 } else idx(v) = -1
      v += 1
    }
    idx
  }
}
