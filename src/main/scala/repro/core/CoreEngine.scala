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
    * (caller guarantees warm.x ≤ x and warm.y ≤ y). None if empty.
    */
  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle]
}

object CoreEngine {

  /** The warm-start contract of [[CoreEngine.core]], checked by every engine. */
  def requireWarm(x: Int, y: Int, warm: Option[CoreHandle]): Unit =
    warm.foreach { w =>
      require(w.x <= x && w.y <= y, s"invalid warm start [${w.x},${w.y}] for [$x,$y]")
    }
}

/** Reference engine over a driver-local digraph. */
final class LocalCoreEngine(g: LocalDigraph) extends CoreEngine {
  private final case class H(x: Int, y: Int, g: LocalDigraph) extends CoreHandle {
    def sSize: Long = g.sSize.toLong
    def tSize: Long = g.tSize.toLong
    def m: Long     = g.m.toLong
    def sub(): LocalDigraph = g
    def candidate(): Candidate = Candidate.of(g)
  }

  def n: Long = g.n.toLong
  def m: Long = g.m.toLong

  // the whole graph, less isolated vertices, is its own [1,1]-core
  private lazy val full: LocalDigraph = LocalXYCore.peel(g, 1, 1)
  def fullSub(): LocalDigraph = full

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    CoreEngine.requireWarm(x, y, warm)
    val host = warm match {
      case Some(h: H) => h.g
      case _          => g // foreign handle: ignore warm start
    }
    val core = LocalXYCore.peel(host, x, y)
    if (core.isEmpty) None else Some(H(x, y, core))
  }
}

/** Production engine: Spark DataFrame iterative peeling over cached edges.
  *
  * ``localCutoff`` — see [[XYCore.peel]]. A core with at most this many
  * edges reaches the driver once and is kept as an in-memory engine over
  * its edges: a query at (x,y) dominating that core's (cx,cy) has its
  * answer inside it (nestedness), so it is served without a Spark job. A
  * graph within the cutoff is its own [1,1]-core, collected once at the
  * first use of ``n``, ``fullSub`` or ``core``, and then serves every query.
  * Above the cutoff, the whole graph's degrees that ``n`` reads are kept:
  * the graph is its own [1,1]-core, so a cold call peels from them, and a
  * call warm-started from a Spark-peeled core peels from that core's
  * degrees. No call scans the edges for degrees the driver already holds.
  */
final class SparkCoreEngine(edges0: DataFrame, localCutoff: Long = 400000L) extends CoreEngine {
  /** Canonicalized, cached base edge set all cores derive from. */
  val base: DataFrame = DigraphOps.canonicalize(edges0).cache()

  /** A core this engine peeled: its exact degrees when it reached its
    * fixpoint in Spark (always above the cutoff), or its edges when it was
    * finished on the driver.
    */
  private[core] final case class H(x: Int, y: Int, core: Either[PairDegrees, LocalDigraph]) extends CoreHandle {
    def sSize: Long = core.fold(_.s.length, _.sSize).toLong
    def tSize: Long = core.fold(_.t.length, _.tSize).toLong
    def m: Long     = core.fold(_.m, _.m.toLong)
    def sub(): LocalDigraph = core.fold(_ => XYCore.collectSub(base, candidate()), identity)
    def candidate(): Candidate = core.fold(d => Candidate(d.s, d.t, d.m), Candidate.of)
  }

  /** Edge count; this first action also fills the cache of ``base``. */
  lazy val m: Long = base.count()

  private lazy val whole: Option[LocalCoreEngine] =
    Option.when(m <= localCutoff)(new LocalCoreEngine(LocalDigraph.fromEdges(base)))

  /** Every source and destination with its degree (read above the cutoff only). */
  private lazy val all: PairDegrees = EdgeScan.allDegrees(base)

  // every vertex is a source or a destination
  lazy val n: Long = whole.fold(all.vertexCount)(_.n)

  // canonical edges have no isolated vertex: the graph is its own [1,1]-core
  def fullSub(): LocalDigraph = whole.fold(LocalDigraph.fromEdges(base))(_.fullSub())

  private final case class Cached(x: Int, y: Int, engine: LocalCoreEngine)
  private lazy val cached: ArrayBuffer[Cached] = ArrayBuffer.from(whole.map(Cached(1, 1, _)))

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    CoreEngine.requireWarm(x, y, warm)
    cached.find(c => c.x <= x && c.y <= y) match {
      case Some(c) =>
        // local handles warm-start each other; this engine's handles (H) are ignored
        c.engine.core(x, y, warm.filterNot(_.isInstanceOf[H]))
      case None =>
        val peeled = warm match {
          case Some(H(_, _, Left(d)))  => XYCore.peel(base, x, y, d, localCutoff)
          case Some(H(_, _, Right(g))) => Right(LocalXYCore.peel(g, x, y)) // a core the full cache left out
          case _                       => XYCore.peel(base, x, y, all, localCutoff)
        }
        if (peeled.fold(_.m == 0, _.isEmpty)) None
        else {
          peeled.foreach(g => if (cached.size < 8) cached += Cached(x, y, new LocalCoreEngine(g)))
          Some(H(x, y, peeled))
        }
    }
  }

  def release(): Unit = { base.unpersist(); () }
}
