package repro.flow

import repro.core.Candidate
import repro.graph.LocalDigraph

/** The fixed-ratio density decision network, in integers.
  *
  * At ratio a = p/q, a pair (S,T) has level E(S,T)/(q|S| + p|T|); its
  * surrogate ρ'_a is 2√(pq) times that. For a level e/d, a pair with
  * d·E(S,T) − e·(q|S| + p|T|) > 0 exists iff the min s-t cut of the
  * following vertex-only network (Goldberg 1984; Khuller–Saha 2009) is
  * strictly below d·m: one node α_u per u∈S and β_v per v∈T, arcs s→α_u
  * (cap d·d⁺(u)), α_u→t (cap e·q), α_u→β_v per edge (cap d) and β_v→t
  * (cap e·p). A source side {α_u : u∈S'} ∪ {β_v : v∈T'} cuts
  * d·m − (d·E(S',T') − e·(q|S'| + p|T'|)), so the min-cut source side is
  * the objective's argmax. Every capacity and flow is a `Long`; a network
  * with d·m, e·q or e·p at or past 2⁶³ throws `ArithmeticException`.
  */
object DensityFlow {

  // node layout: source, sink, then α_u = 2 + sIdx(u), β_v = 2 + |S| + tIdx(v)
  private val Source = 0
  private val Sink   = 1

  /** Size (node count) of the network that ``bestAbove`` would build. */
  def networkNodes(sub: LocalDigraph): Int = 2 + sub.sSize + sub.tSize

  /** Return the argmax of d·E(S',T') − e·(q|S'| + p|T'|) over ``sub`` if
    * that maximum is positive, i.e. if some pair's level beats e/d; None
    * otherwise. Throws `IllegalStateException` if the pair's recounted
    * objective is not exactly d·m − max-flow.
    */
  def bestAbove(sub: LocalDigraph, e: Long, d: Long, p: Long, q: Long): Option[Candidate] = {
    if (sub.isEmpty) return None
    val sIdx = number(sub.hasOut)
    val tIdx = number(sub.hasIn)
    val dinic = network(sub, sIdx, tIdx, e, d, p, q)
    val gain = d * sub.m - dinic.maxflow(Source, Sink) // ``network`` checked d·m
    if (gain == 0) return None // min-cut == d·m: nothing above e/d
    val side = dinic.minCutSourceSide(Source)

    val tBase = 2 + sub.sSize
    val inS = new Array[Boolean](sub.n)
    val inT = new Array[Boolean](sub.n)
    var v = 0
    while (v < sub.n) {
      inS(v) = sIdx(v) >= 0 && side(2 + sIdx(v))
      inT(v) = tIdx(v) >= 0 && side(tBase + tIdx(v))
      v += 1
    }

    // Recount E(S',T') from the edges: the side must gain what the flow says.
    val cand = Candidate(sub.idsOf(inS), sub.idsOf(inT), sub.edgesBetween(inS, inT))
    val recount = d * cand.m - Math.multiplyExact(e, q * cand.sSize + p * cand.tSize)
    if (recount != gain)
      throw new IllegalStateException(s"min-cut side gains $recount, the max-flow says $gain")
    Some(cand)
  }

  /** Max-flow value of the (e, d, p, q) network over ``sub``: d·m minus the
    * objective's maximum.
    */
  private[flow] def maxflow(sub: LocalDigraph, e: Long, d: Long, p: Long, q: Long): Long =
    if (sub.isEmpty) 0L
    else network(sub, number(sub.hasOut), number(sub.hasIn), e, d, p, q).maxflow(Source, Sink)

  /** The vertex-only network for level e/d at ratio p/q over ``sub``, with S
    * and T numbered by ``sIdx`` and ``tIdx``: 2+|S|+|T| nodes, m+2|S|+|T|
    * arcs.
    */
  private def network(sub: LocalDigraph, sIdx: Array[Int], tIdx: Array[Int],
                      e: Long, d: Long, p: Long, q: Long): Dinic = {
    Math.multiplyExact(d, sub.m.toLong) // the source arcs' total, which bounds every flow
    val ns = sub.sSize
    val tBase = 2 + ns
    val sCost = Math.multiplyExact(e, q)
    val tCost = Math.multiplyExact(e, p)

    val outDeg = new Array[Int](ns)
    var k = 0
    while (k < sub.m) { outDeg(sIdx(sub.src(k))) += 1; k += 1 }

    val dinic = new Dinic(tBase + sub.tSize)
    var i = 0
    while (i < ns) {
      dinic.addEdge(Source, 2 + i, d * outDeg(i))
      dinic.addEdge(2 + i, Sink, sCost)
      i += 1
    }
    var j = 0
    while (j < sub.tSize) { dinic.addEdge(tBase + j, Sink, tCost); j += 1 }
    k = 0
    while (k < sub.m) { dinic.addEdge(2 + sIdx(sub.src(k)), tBase + tIdx(sub.dst(k)), d); k += 1 }
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
