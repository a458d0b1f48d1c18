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
    val (dinic, flow) = solve(sub, sIdx, tIdx, e, d, p, q)
    val gain = d * sub.m - flow // ``solve`` checked d·m
    if (gain == 0) return None // min-cut == d·m: nothing above e/d
    val side = dinic.sourceSide()

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

  /** The max flow of the network for level e/d at ratio p/q over ``sub``,
    * with S and T numbered by ``sIdx`` and ``tIdx``: the ``Dinic``,
    * whose residual graph gives the minimal min-cut side, and the flow's
    * value in the network of the object comment.
    *
    * The ``Dinic`` is that network with 2+|S|+|T| nodes but at most
    * m+|S|+|T| arcs, and its min cuts are the same vertex sets:
    *  - Each α_u's direct path s→α_u→t is folded. Every cut cuts exactly
    *    one of its two arcs, so taking c_u = min(d·d⁺(u), e·q) off both
    *    lowers every cut by Σ c_u, which is added back to the flow's value.
    *    At most the s→α_u arc is left. An α_u→t arc with capacity left is
    *    dropped too: α_u then has no arc in, so it carries no flow and is
    *    never reachable from s, with or without the arc. (Inside the cores
    *    that CoreExact passes, d·d⁺(u) ≥ e·q always.)
    *  - Dinic starts from a greedy flow: one pass over the edges in order
    *    sends min(s→α_u left, d, β_v→t left) along each s→α_u→β_v→t.
    */
  private def solve(sub: LocalDigraph, sIdx: Array[Int], tIdx: Array[Int],
                    e: Long, d: Long, p: Long, q: Long): (Dinic, Long) = {
    Math.multiplyExact(d, sub.m.toLong) // the source arcs' total, which bounds every flow
    val ns = sub.sSize
    val nt = sub.tSize
    val tBase = 2 + ns
    val sCost = Math.multiplyExact(e, q)
    val tCost = Math.multiplyExact(e, p)

    val outDeg = new Array[Int](ns)
    var k = 0
    while (k < sub.m) { outDeg(sIdx(sub.src(k))) += 1; k += 1 }

    // capacity left on s→α_u after the fold, then after the greedy flow
    val sourceLeft = new Array[Long](ns)
    var folded = 0L
    var kept = 0 // s→α_u arcs left after the fold
    var i = 0
    while (i < ns) {
      val a = d * outDeg(i)
      folded += math.min(a, sCost)
      sourceLeft(i) = math.max(a - sCost, 0L)
      if (a > sCost) kept += 1
      i += 1
    }
    val sinkLeft = Array.fill(nt)(tCost) // capacity left on β_v→t

    val arcs = sub.m + kept + nt
    val tail = new Array[Int](arcs)
    val head = new Array[Int](arcs)
    val cap  = new Array[Long](arcs)
    val flow = new Array[Long](arcs)
    k = 0
    while (k < sub.m) {
      val u = sIdx(sub.src(k))
      val v = tIdx(sub.dst(k))
      val f = math.min(math.min(sourceLeft(u), d), sinkLeft(v))
      sourceLeft(u) -= f
      sinkLeft(v) -= f
      tail(k) = 2 + u; head(k) = tBase + v; cap(k) = d; flow(k) = f
      k += 1
    }
    i = 0
    while (i < ns) {
      val a = d * outDeg(i)
      if (a > sCost) {
        tail(k) = Source; head(k) = 2 + i; cap(k) = a - sCost; flow(k) = a - sCost - sourceLeft(i); k += 1
      }
      i += 1
    }
    var j = 0
    while (j < nt) {
      tail(k) = tBase + j; head(k) = Sink; cap(k) = tCost; flow(k) = tCost - sinkLeft(j); k += 1; j += 1
    }
    val dinic = new Dinic(tBase + nt, Source, Sink, tail, head, cap, flow)
    (dinic, folded + dinic.value)
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
