package repro.flow

import repro.core.{Candidate, CoreSub}

/** The fixed-ratio density decision network.
  *
  * For a guess density g and ratio a, a pair (S,T) with
  *   E(S,T) − (g/2)·(|S|/√a + √a·|T|) > 0
  * exists iff the min s-t cut of the following project-selection network is
  * strictly below m: one "profit" node per edge (s→e, cap 1), prerequisite
  * arcs e→u₁ and e→v₂ (cap ∞), and "cost" arcs u₁→t (cap g/(2√a)) and
  * v₂→t (cap g·√a/2). The min-cut source side is the objective's argmax.
  *
  * Extraction is self-verifying: the returned candidate's surrogate is
  * recomputed exactly from integer edge counts, so floating-point slop in
  * the flow cannot produce a wrong "improvement".
  */
object DensityFlow {

  /** Size (node count) of the network that ``bestAbove`` would build. */
  def networkNodes(sub: CoreSub): Int = 2 + sub.sSize + sub.tSize + sub.m

  /** Return the argmax of E − (g/2)(|S|/√a + √a|T|) over ``sub`` if its
    * surrogate strictly exceeds ``g``; None otherwise.
    */
  def bestAbove(sub: CoreSub, g: Double, a: Double): Option[Candidate] = {
    if (sub.isEmpty) return None
    val d = sub.g
    val sIdx = number(d.hasOut)
    val tIdx = number(d.hasIn)
    val ns = sub.sSize
    val nt = sub.tSize
    val m  = sub.m

    // node layout: 0 = source, 1 = sink, 2..2+ns-1 = S-copies,
    // 2+ns..2+ns+nt-1 = T-copies, 2+ns+nt.. = edge nodes.
    val S = 0
    val T = 1
    def sNode(i: Int) = 2 + i
    def tNode(j: Int) = 2 + ns + j
    def eNode(k: Int) = 2 + ns + nt + k

    val inf   = 4.0 * m + 16.0
    val sCost = g / (2.0 * math.sqrt(a))
    val tCost = g * math.sqrt(a) / 2.0

    val dinic = new Dinic(2 + ns + nt + m)
    var i = 0
    while (i < ns) { dinic.addEdge(sNode(i), T, sCost); i += 1 }
    var j = 0
    while (j < nt) { dinic.addEdge(tNode(j), T, tCost); j += 1 }
    var k = 0
    while (k < m) {
      dinic.addEdge(S, eNode(k), 1.0)
      dinic.addEdge(eNode(k), sNode(sIdx(d.src(k))), inf)
      dinic.addEdge(eNode(k), tNode(tIdx(d.dst(k))), inf)
      k += 1
    }

    val flow = dinic.maxflow(S, T)
    if (flow >= m - 1e-9 * (m + 1.0)) return None // min-cut == m: nothing above g
    val side = dinic.minCutSourceSide(S)

    val inS = Array.tabulate(d.n)(v => sIdx(v) >= 0 && side(sNode(sIdx(v))))
    val inT = Array.tabulate(d.n)(v => tIdx(v) >= 0 && side(tNode(tIdx(v))))
    if (!inS.contains(true) || !inT.contains(true)) return None

    // Exact integer edge count between the selected sides.
    val cand = Candidate(d.idsOf(inS), d.idsOf(inT), d.edgesBetween(inS, inT))
    if (cand.surrogate(a) > g * (1 + 1e-12) + 1e-12) Some(cand) else None
  }

  /** Numbers the masked vertices 0, 1, ... in index order; -1 for the rest. */
  private def number(mask: Array[Boolean]): Array[Int] = {
    val idx = Array.fill(mask.length)(-1)
    var next = 0
    for (v <- mask.indices if mask(v)) { idx(v) = next; next += 1 }
    idx
  }
}
