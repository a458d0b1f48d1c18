package repro.core

import org.apache.spark.sql.DataFrame
import scala.collection.mutable
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

  /** The [x,y]-core, None if empty. The engine picks the known core the
    * call starts from; ``warm`` (warm.x ≤ x and warm.y ≤ y, checked) is for
    * a core the engine may have forgotten, and counts only if this engine
    * returned it: any other handle is ignored.
    */
  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle]
}

/** The cores an engine knows, and the one rule for where its core calls
  * start: a call at (x,y) peels the smallest, by m, of the caller's warm
  * handle (if this engine returned it) and the known cores below (x,y),
  * each of which contains the [x,y]-core (nestedness); failing those, the
  * whole graph. The known cores are two short lists: ``kept``, the first
  * 8 cores that reached the driver from a ``Left`` start, for the engine's
  * life, and ``recent``, the latest 8 cores the engine returned.
  */
private[core] final class KnownCores(engine: CoreEngine) {
  private val kept   = mutable.ArrayBuffer.empty[PairCore]
  private val recent = mutable.Queue.empty[PairCore]

  /** The known core a call at (x,y) starts from; None = the whole graph. */
  def start(x: Int, y: Int, warm: Option[CoreHandle]): Option[PairCore] = {
    warm.foreach(w => require(w.x <= x && w.y <= y, s"invalid warm start [${w.x},${w.y}] for [$x,$y]"))
    val own = warm.collect { case h: PairCore if h.owner eq engine => h }
    (own ++ kept ++ recent).filter(h => h.x <= x && h.y <= y).minByOption(_.m)
  }

  /** Records ``h``, a core the engine returns, peeled from ``from``. */
  def add(h: PairCore, from: PairState): Some[PairCore] = {
    if (from.isLeft && h.pair.isRight && kept.size < 8) kept += h
    recent.enqueue(h)
    if (recent.size > 8) recent.dequeue()
    Some(h)
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

  private val known = new KnownCores(this)

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    // this engine's cores are all on the driver
    val from = known.start(x, y, warm).flatMap(_.pair.toOption).getOrElse(g)
    val core = LocalXYCore.peel(from, x, y)
    if (core.isEmpty) None else known.add(new PairCore(x, y, Right(core), this, core), Right(from))
  }
}

/** Production engine: Spark iterative peeling over cached edges.
  *
  * ``localCutoff`` — see [[XYCore.peel]]. A core with at most this many
  * edges reaches the driver once, as a ``LocalDigraph``: a later call at
  * an (x,y) dominating its own has its answer inside it (nestedness), and
  * is peeled there without a Spark job. A graph within the cutoff is its
  * own [1,1]-core, collected once at the first use of ``n``, ``fullSub`` or
  * ``core``, and kept. Above the cutoff, the degrees ``n`` reads are kept.
  *
  * A call peels, with [[XYCore.peel]], the core [[KnownCores]] picks, else
  * the whole graph (its digraph within the cutoff, its degrees above). A
  * core that reached its fixpoint in Spark has more edges than the cutoff,
  * so any driver core is smaller and is picked first. No call scans the
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

  private val known = new KnownCores(this)

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    val from = known.start(x, y, warm).fold(whole.toRight(allDegrees))(_.pair)
    val peeled = XYCore.peel(base, x, y, from, localCutoff)
    if (peeled.fold(_.m == 0, _.isEmpty)) None
    else known.add(new PairCore(x, y, peeled, this,
                                peeled.fold(d => LocalDigraph.fromEdges(base, d.s, d.t), identity)), from)
  }

  def release(): Unit = { base.unpersist(); () }
}
