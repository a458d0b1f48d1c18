package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{DigraphOps, LocalDigraph}

/** Iterative [x,y]-core peeling as Spark dataflow.
  *
  * The loop keeps the *edge set* in Spark and the (much smaller) alive
  * vertex sets on the driver: each round is a single job that filters the
  * cached base edges by the broadcast alive sets, computes out- and
  * in-degrees in one exploded aggregation, and collects the surviving
  * vertices. Lineage depth stays constant because every round re-derives
  * from the cached base edges. Batch removal converges to the same unique
  * maximal core as one-at-a-time peeling (valid pairs are union-closed).
  */
object XYCore {

  /** Degree rows of the current pair-subgraph: (id, side 0=src/1=dst, cnt). */
  private[repro] def degreeRows(cur: DataFrame): Array[(Long, Int, Long)] = {
    val exploded = cur.select(
      explode(array(
        struct(col("src").as("id"), lit(0).as("side")),
        struct(col("dst").as("id"), lit(1).as("side"))
      )).as("v")
    ).select(col("v.id").as("id"), col("v.side").as("side"))
    exploded
      .groupBy("id", "side")
      .agg(count(lit(1)).as("cnt"))
      .collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2)))
  }

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
    * driver, Left when it reached its fixpoint in Spark (edges still
    * distributed; [[collectSub]] fetches them).
    */
  def peel(base: DataFrame, x: Int, y: Int, warm: Option[Candidate] = None,
           localCutoff: Long = 0L): Either[Candidate, LocalDigraph] = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val empty = Left(Candidate.empty)
    if (warm.exists(_.isEmpty)) return empty
    var sAlive: Array[Long] = warm.map(_.s).orNull // null = unrestricted
    var tAlive: Array[Long] = warm.map(_.t).orNull

    def finishLocally(): Either[Candidate, LocalDigraph] = {
      val alive = LocalDigraph.fromEdges(DigraphOps.pairSubgraph(base, sAlive, tAlive))
      Right(LocalXYCore.peel(alive, x, y))
    }

    if (warm.exists(_.m <= localCutoff)) return finishLocally()

    // Each round's survivors are a subset of the last round's alive sets, so
    // a round that is not stable removes at least one alive vertex: the loop
    // ends within |S|+|T|+1 rounds (the first round may remove nothing).
    while (true) {
      val cur =
        if (sAlive == null) base
        else DigraphOps.pairSubgraph(base, sAlive, tAlive)
      val rows = degreeRows(cur)
      val curM = rows.collect { case (_, 0, c) => c }.sum
      val newS = rows.collect { case (id, 0, c) if c >= x => id }.sorted
      val newT = rows.collect { case (id, 1, c) if c >= y => id }.sorted
      if (newS.isEmpty || newT.isEmpty) return empty
      val stable = sAlive != null &&
        newS.length == sAlive.length && newT.length == tAlive.length
      if (stable) {
        // Fixpoint: no vertex fell below threshold, so every edge of `cur`
        // survived; m is the sum of all out-degree rows.
        return Left(Candidate(newS, newT, curM))
      }
      sAlive = newS
      tAlive = newT
      if (curM <= localCutoff) return finishLocally()
    }
    sys.error("unreachable")
  }

  /** The distributed edge set of a computed core. */
  def coreEdges(base: DataFrame, core: Candidate): DataFrame =
    if (core.isEmpty) base.limit(0) else DigraphOps.pairSubgraph(base, core.s, core.t)

  /** Materialize a core's edges on the driver (for flow networks). */
  def collectSub(base: DataFrame, core: Candidate): LocalDigraph =
    if (core.isEmpty) LocalDigraph.fromPairs(Nil)
    else LocalDigraph.fromEdges(coreEdges(base, core))
}
