package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable.ArrayBuffer
import repro.graph.{DigraphOps, EdgeScan, LocalDigraph, PairDegrees}

/** A computed [x,y]-core: side sizes and edge count up front, edges
  * materialized lazily (flow networks need them, size probes do not).
  */
trait CoreHandle {
  def x: Int
  def y: Int
  def sSize: Long
  def tSize: Long
  def m: Long
  def density: Double = DigraphOps.density(m, sSize, tSize)

  /** The core's edges on the driver (used to build flow networks). */
  def sub(): LocalDigraph

  /** The core as an answer candidate (ids + exact edge count). */
  def candidate(): Candidate
}

/** Abstract [x,y]-core provider.
  *
  * The exact and approximation algorithms are written against this trait so
  * the same logic runs on the Spark dataflow implementation (production
  * path, benches) and on the in-memory reference (fast seed-loop tests,
  * and the oracle the Spark path is validated against).
  */
trait CoreEngine {

  /** Number of vertices of the host graph (bounds |S|, |T|). */
  def n: Long

  /** Number of edges of the host graph. */
  def m: Long

  /** The whole graph on the driver (all sources, all destinations). */
  def fullSub(): LocalDigraph

  /** The [x,y]-core, warm-started from a superset core when available
    * (caller guarantees warm.x ≤ x and warm.y ≤ y). None if empty. An
    * engine warm-starts only from a core it returned itself, and ignores
    * any other handle.
    */
  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle]
}

object CoreEngine {

  /** The pair of ``warm`` if ``engine`` returned it, after checking the
    * warm-start contract of [[CoreEngine.core]] (which holds for any handle).
    */
  private[core] def ownWarm(engine: CoreEngine, x: Int, y: Int, warm: Option[CoreHandle]): Option[PairState] = {
    warm.foreach { w =>
      require(w.x <= x && w.y <= y, s"invalid warm start [${w.x},${w.y}] for [$x,$y]")
    }
    warm.collect { case h: PairCore if h.owner eq engine => h.pair }
  }
}

/** The one [[CoreHandle]]: a non-empty core as the [[PairState]] its
  * engine's peel returned (its exact degrees while its edges are still in
  * Spark, its edges once on the driver), with the engine that made it.
  * ``edges`` fetches the core's edges on the driver.
  */
final class PairCore private[core] (val x: Int, val y: Int, val pair: PairState,
                                   private[core] val owner: CoreEngine, edges: => LocalDigraph)
    extends CoreHandle {
  def sSize: Long = pair.fold(_.s.length, _.sSize).toLong
  def tSize: Long = pair.fold(_.t.length, _.tSize).toLong
  def m: Long     = pair.fold(_.m, _.m.toLong)
  def sub(): LocalDigraph = edges
  def candidate(): Candidate = pair.fold(d => Candidate(d.s, d.t, d.m), Candidate.of)
}

/** Reference engine over a driver-local digraph. */
final class LocalCoreEngine(g: LocalDigraph) extends CoreEngine {
  def n: Long = g.n.toLong
  def m: Long = g.m.toLong

  // the whole graph, less isolated vertices, is its own [1,1]-core
  private lazy val full: LocalDigraph = LocalXYCore.peel(g, 1, 1)
  def fullSub(): LocalDigraph = full

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    // this engine's cores are all on the driver
    val from = CoreEngine.ownWarm(this, x, y, warm).flatMap(_.toOption).getOrElse(g)
    val core = LocalXYCore.peel(from, x, y)
    if (core.isEmpty) None else Some(new PairCore(x, y, Right(core), this, core))
  }
}

/** Production engine: Spark iterative peeling over cached edges.
  *
  * ``localCutoff`` — see [[XYCore.peel]]. A core with at most this many
  * edges reaches the driver once and is kept there as a ``LocalDigraph``,
  * up to 8 of them: a query at (x,y) dominating that core's (cx,cy) has
  * its answer inside it (nestedness), so it is peeled there without a
  * Spark job. A graph within the cutoff is its own [1,1]-core, collected
  * once at the first use of ``n``, ``fullSub`` or ``core``, and kept the
  * same way. Above the cutoff, the whole graph's degrees that ``n`` reads
  * are kept.
  *
  * A call peels, with [[XYCore.peel]], the tightest pair known to contain
  * its core: the smallest driver core among its warm handle and the kept
  * cores below (x,y); failing that, its warm handle's degrees; failing
  * that, the whole graph's degrees (the graph is its own [1,1]-core). Only
  * handles this engine returned count as warm starts. No call scans the
  * edges for degrees the driver already holds.
  */
final class SparkCoreEngine(edges0: DataFrame, localCutoff: Long = 400000L) extends CoreEngine {
  /** Canonicalized, cached base edge set all cores derive from. */
  val base: DataFrame = DigraphOps.canonicalize(edges0).cache()

  /** Edge count; this first action also fills the cache of ``base``. */
  lazy val m: Long = base.count()

  private lazy val whole: Option[LocalDigraph] = Option.when(m <= localCutoff)(LocalDigraph.fromEdges(base))

  /** Every source and destination of ``base`` with its degree: one
    * [[EdgeScan.allDegrees]] pass, run at the first read (``n`` reads it
    * above the cutoff) and kept. Callers read it and must not write its
    * arrays: cold core calls peel from it.
    */
  lazy val allDegrees: PairDegrees = EdgeScan.allDegrees(base)

  // every vertex is a source or a destination
  lazy val n: Long = whole.fold(allDegrees.vertexCount)(_.n.toLong)

  // canonical edges have no isolated vertex: the graph is its own [1,1]-core
  def fullSub(): LocalDigraph = whole.getOrElse(LocalDigraph.fromEdges(base))

  /** The driver cores kept for later calls, with their (x,y). */
  private lazy val kept: ArrayBuffer[(Int, Int, LocalDigraph)] = ArrayBuffer.from(whole.map((1, 1, _)))

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    val own = CoreEngine.ownWarm(this, x, y, warm)
    val onDriver = (own.flatMap(_.toOption) ++ kept.collect { case (cx, cy, g) if cx <= x && cy <= y => g })
      .minByOption(_.m)
    val from = onDriver.map(Right(_)).orElse(own).getOrElse(Left(allDegrees))
    val peeled = XYCore.peel(base, x, y, from, localCutoff)
    if (peeled.fold(_.m == 0, _.isEmpty)) None
    else {
      // a core that reached the driver from Spark is kept; one peeled from a driver core is inside it
      if (onDriver.isEmpty) peeled.foreach(g => if (kept.size < 8) kept += ((x, y, g)))
      Some(new PairCore(x, y, peeled, this, peeled.fold(d => LocalDigraph.fromEdges(base, d.s, d.t), identity)))
    }
  }

  def release(): Unit = { base.unpersist(); () }
}
