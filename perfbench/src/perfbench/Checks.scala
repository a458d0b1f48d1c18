package perfbench

/** Output checks that share no code with the search: every count is redone
  * from the workload's own canonical edge array, and density comparisons
  * are made exactly, as ρ² = E²/(|S|·|T|) in integer arithmetic.
  * Each check returns the list of failures (empty = correct).
  */
object Checks {

  /** |E(S,T)| and the smallest out-degree into T over S and in-degree from
    * S over T, counted in one pass over the canonical edges.
    */
  final case class Recount(e: Long, minOut: Long, minIn: Long)

  def recount(g: Graph, s: Array[Long], t: Array[Long]): Recount = {
    val inS = mask(g, s)
    val inT = mask(g, t)
    val out = new Array[Long](g.maxId + 1)
    val in  = new Array[Long](g.maxId + 1)
    var e = 0L
    var i = 0
    while (i < g.edges.length) {
      val u = g.src(i).toInt
      val v = g.dst(i).toInt
      if (inS(u) && inT(v)) { e += 1; out(u) += 1; in(v) += 1 }
      i += 1
    }
    Recount(e, if (s.isEmpty) 0L else s.map(u => out(u.toInt)).min,
               if (t.isEmpty) 0L else t.map(v => in(v.toInt)).min)
  }

  private def mask(g: Graph, ids: Array[Long]): Array[Boolean] = {
    val b = new Array[Boolean](g.maxId + 1)
    ids.foreach(v => if (v >= 1 && v <= g.maxId) b(v.toInt) = true)
    b
  }

  private def sortedDistinctInRange(g: Graph, ids: Array[Long]): Boolean =
    ids.nonEmpty && ids.indices.forall(i =>
      ids(i) >= 1 && ids(i) <= g.maxId && (i == 0 || ids(i - 1) < ids(i)))

  private def big(v: Long): BigInt = BigInt(v)

  /** Common to both queries: well-formed sides, the reported edge count and
    * density match the recount, and √(x*y*) ≤ ρ (E² ≥ xy·|S|·|T|).
    */
  private def pair(g: Graph, s: Array[Long], t: Array[Long], m: Long, density: Double,
                   xy: Long): (Recount, Seq[String]) = {
    val f = Seq.newBuilder[String]
    if (!sortedDistinctInRange(g, s)) f += "S is empty, unsorted or out of range"
    if (!sortedDistinctInRange(g, t)) f += "T is empty, unsorted or out of range"
    val r = recount(g, s, t)
    if (r.e != m) f += s"reported |E(S,T)|=$m but the edge array has ${r.e}"
    val rho = r.e / math.sqrt(s.length.toDouble * t.length.toDouble)
    if (!(math.abs(rho - density) <= 1e-9 * math.max(1.0, rho)))
      f += s"reported ρ=$density but E/√(|S||T|)=$rho"
    val st = big(s.length) * t.length
    if (big(r.e) * r.e < big(xy) * st) f += s"ρ=$rho below √(x*y*)=√$xy"
    (r, f.result())
  }

  /** CoreApprox returns the [x*,y*]-core: every u∈S has ≥ x* out-neighbours
    * in T, every v∈T ≥ y* in-neighbours in S, and ρ ≥ √(x*·y*).
    */
  def approx(g: Graph, x: Int, y: Int, s: Array[Long], t: Array[Long], m: Long,
             density: Double, expectXY: Option[Long]): Seq[String] = {
    val xy = x.toLong * y
    val (r, f) = pair(g, s, t, m, density, xy)
    f ++
      (if (r.minOut < x) Seq(s"a vertex of S has ${r.minOut} < x*=$x out-neighbours in T") else Nil) ++
      (if (r.minIn < y) Seq(s"a vertex of T has ${r.minIn} < y*=$y in-neighbours in S") else Nil) ++
      expectXY.filter(_ != xy).map(e => s"x*·y*=$xy but $e was recorded").toSeq
  }

  /** CoreExact: ρ ≤ 2√(x*y*) (E² ≤ 4xy·|S|·|T|) besides the common checks,
    * and x*·y* and ρ² equal to the recorded values when they are known.
    */
  def exact(g: Graph, xy: Long, s: Array[Long], t: Array[Long], m: Long, density: Double,
            expectXY: Option[Long], expectOpt: Option[(Long, Long, Long)]): Seq[String] = {
    val (r, f) = pair(g, s, t, m, density, xy)
    val lhs = big(r.e) * r.e
    val st  = big(s.length) * t.length
    f ++
      (if (lhs > big(4) * xy * st) Seq(s"ρ above 2√(x*y*)=2√$xy") else Nil) ++
      expectXY.filter(_ != xy).map(e => s"x*·y*=$xy but $e was recorded").toSeq ++
      expectOpt.collect {
        case (e0, s0, t0) if lhs * s0 * t0 != big(e0) * e0 * st =>
          s"ρ²=${r.e}²/(${s.length}·${t.length}) differs from the recorded optimum ${e0}²/(${s0}·${t0})"
      }.toSeq
  }
}
