package repro.core

import org.apache.spark.sql.DataFrame
import scala.annotation.tailrec
import repro.graph.{DigraphOps, EdgeScan, LocalDigraph, PairDegrees}

/** Iterative [x,y]-core peeling as Spark dataflow.
  *
  * The loop keeps the *edge set* in Spark and the (much smaller) alive
  * vertex sets on the driver, as sorted id arrays. Every round is one
  * narrow pass over the cached base edges: one map-only job with no
  * shuffle. A cold call's first round finds the ids
  * ([[EdgeScan.allDegrees]]); every later round, and a warm call's first,
  * counts degrees by position in the broadcast alive sets
  * ([[EdgeScan.degrees]]), and the driver sums the counts and filters them
  * into the next (still sorted) alive sets.
  * Lineage depth stays constant because every round re-reads the cached
  * base edges. Batch removal converges to the same unique maximal core as
  * one-at-a-time peeling (valid pairs are union-closed).
  */
object XYCore {

  /** Peel ``base`` (cached canonical edges, columns src/dst) down to its
    * [x,y]-core. ``warm`` optionally restricts the search to a superset
    * core (valid whenever it is the [x',y']-core with x' ≤ x and y' ≤ y, by
    * nestedness; the caller checks that).
    *
    * ``localCutoff``: once the alive edge count drops to this size, the
    * remaining pair-subgraph is collected and the (identical) fixpoint is
    * finished by the exact in-memory peeler. Batch peeling near the
    * critical threshold can cascade one thin layer per round — hundreds of
    * rounds of job-launch latency for a subgraph that by then fits in
    * memory. 0 disables the hybrid (pure dataflow rounds, used in tests).
    *
    * Returns Right with the core's edges when it was finished on the
    * driver (always, for a core within the cutoff), Left when it reached
    * its fixpoint in Spark (edges still distributed; [[collectSub]] fetches
    * them).
    */
  def peel(base: DataFrame, x: Int, y: Int, warm: Option[Candidate] = None,
           localCutoff: Long = 0L): Either[Candidate, LocalDigraph] = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val empty = Left(Candidate.empty)
    if (warm.exists(_.isEmpty)) return empty

    def finishLocally(s: Array[Long], t: Array[Long]): Either[Candidate, LocalDigraph] =
      Right(LocalXYCore.peel(LocalDigraph.fromEdges(base, s, t), x, y))

    // Each round's survivors are a subset of its alive sets, so a round
    // that is not stable removes at least one alive vertex: the loop ends
    // within |S|+|T|+1 rounds.
    @tailrec def round(d: PairDegrees): Either[Candidate, LocalDigraph] = {
      val s = d.sOver(x - 1)
      val t = d.tOver(y - 1)
      if (s.isEmpty || t.isEmpty) empty
      else if (d.m <= localCutoff) finishLocally(s, t)
      // Fixpoint: no vertex fell below threshold (the cold round included),
      // so every edge of E(d.s, d.t) survives.
      else if (s.length == d.s.length && t.length == d.t.length) Left(Candidate(s, t, d.m))
      else round(EdgeScan.degrees(base, s, t))
    }

    warm match {
      case Some(w) if w.m <= localCutoff => finishLocally(w.s, w.t)
      case Some(w)                       => round(EdgeScan.degrees(base, w.s, w.t))
      case None                          => round(EdgeScan.allDegrees(base))
    }
  }

  /** The distributed edge set of a computed core. */
  def coreEdges(base: DataFrame, core: Candidate): DataFrame =
    if (core.isEmpty) base.limit(0) else DigraphOps.pairSubgraph(base, core.s, core.t)

  /** Materialize a core's edges on the driver (for flow networks). */
  def collectSub(base: DataFrame, core: Candidate): LocalDigraph =
    if (core.isEmpty) LocalDigraph.fromPairs(Nil)
    else LocalDigraph.fromEdges(base, core.s, core.t)
}
