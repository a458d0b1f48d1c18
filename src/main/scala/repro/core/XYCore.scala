package repro.core

import org.apache.spark.sql.DataFrame
import scala.annotation.tailrec
import repro.graph.{EdgeScan, LocalDigraph, PairDegrees}

/** [x,y]-core peeling of a [[PairState]]: the one function that turns a
  * pair into its core, on either side.
  *
  * A pair on the driver is peeled by [[LocalXYCore.peel]]. A pair in Spark
  * keeps its *edge set* in Spark and the (much smaller) alive vertex sets
  * on the driver, as sorted id arrays with their exact degrees
  * ([[PairDegrees]]): the whole graph's ([[EdgeScan.allDegrees]], kept by
  * the engine) or a superset core's, carried from the round that found it.
  * Each round first tries to settle the peel on the driver from the current
  * degrees, and only otherwise runs one narrow pass over the cached base
  * edges ([[EdgeScan.degrees]] of the survivors: one map-only job with no
  * shuffle), so lineage depth stays constant. Batch removal converges to
  * the same unique maximal core as one-at-a-time peeling (valid pairs are
  * union-closed).
  */
object XYCore {

  /** Peel the pair ``from`` down to its [x,y]-core. ``from`` must contain
    * the core, as the whole graph does, or the [x',y']-core with x' ≤ x and
    * y' ≤ y (by nestedness; the caller checks that). A Right pair is peeled
    * on the driver and stays there. A Left pair holds the exact degrees of
    * E(S,T), whose edges are in ``base`` (cached canonical edges, columns
    * src/dst; read only for a Left pair).
    *
    * ``localCutoff``: once the survivors' edge count of a Left pair is
    * known to be within this size, the remaining pair-subgraph is collected
    * and the (identical) fixpoint is finished by the exact in-memory
    * peeler. Batch peeling near the critical threshold can cascade one thin
    * layer per round — hundreds of rounds of job-launch latency for a
    * subgraph that by then fits in memory. 0 disables the hybrid (pure
    * dataflow rounds, used in tests and by BSApprox).
    *
    * Returns Right with the core's edges when it was finished on the
    * driver (always, for a core within the cutoff), Left with the core's
    * exact degrees when it reached its fixpoint in Spark (edges still
    * distributed; ``LocalDigraph.fromEdges(base, s, t)`` fetches them). An
    * empty core is ``Left(PairDegrees.empty)``, or an empty digraph when the
    * driver finished it.
    */
  def peel(base: => DataFrame, x: Int, y: Int, from: PairState, localCutoff: Long = 0L): PairState = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")

    // Each round's survivors are a subset of its alive sets, so a round
    // that is not settled removes at least one alive vertex: the loop ends
    // within |S|+|T|+1 rounds.
    @tailrec def round(d: PairDegrees): PairState = {
      val (s, sDeg, sOut) = atLeast(d.s, d.out, x)
      val (t, tDeg, tIn)  = atLeast(d.t, d.in, y)
      if (s.isEmpty || t.isEmpty) Left(PairDegrees.empty)
      // E(s,t) lies in E(s,d.t), of size sOut, and in E(d.s,t), of size tIn:
      // the smaller bounds the survivors' edge count (exact when one side drops nothing)
      else if (math.min(sOut, tIn) <= localCutoff)
        Right(LocalXYCore.peel(LocalDigraph.fromEdges(base, s, t), x, y))
      // Both sums are m: every dropped vertex had degree 0, so E(s,t) =
      // E(d.s,d.t) and the survivors' degrees stand: the fixpoint (also
      // when nothing dropped).
      else if (sOut == d.m && tIn == d.m) Left(PairDegrees(s, sDeg, t, tDeg, d.m))
      else round(EdgeScan.degrees(base, s, t))
    }

    from.fold(round, g => Right(LocalXYCore.peel(g, x, y)))
  }

  /** The ids whose degree is at least ``k``, their degrees, and the sum of
    * those: the input arrays themselves when every id stays.
    */
  private def atLeast(ids: Array[Long], deg: Array[Int], k: Int): (Array[Long], Array[Int], Long) = {
    var kept = 0
    var sum = 0L
    var i = 0
    while (i < ids.length) { if (deg(i) >= k) { kept += 1; sum += deg(i) }; i += 1 }
    if (kept == ids.length) return (ids, deg, sum)
    val keptIds = new Array[Long](kept)
    val keptDeg = new Array[Int](kept)
    var c = 0
    i = 0
    while (i < ids.length) {
      if (deg(i) >= k) { keptIds(c) = ids(i); keptDeg(c) = deg(i); c += 1 }
      i += 1
    }
    (keptIds, keptDeg, sum)
  }
}
