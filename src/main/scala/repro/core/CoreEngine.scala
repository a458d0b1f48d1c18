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
    * call starts from, among the cores it returned and still holds (up to
    * a budget of 8·m, least recently used dropped first); ``warm`` (warm.x
    * ≤ x and warm.y ≤ y, checked) is for a core the engine may have
    * dropped, and counts only if this engine returned it: any other handle
    * is ignored.
    */
  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle]
}

/** The one engine body: where a core call starts, the peel, and the cores
  * it knows. A concrete engine supplies the whole graph as a pair: its
  * digraph on the driver (``Right``), or its degrees with its edges in
  * [[base]] (``Left``). ``n`` and ``fullSub`` come from that pair;
  * ``localCutoff`` is [[XYCore.peel]]'s.
  *
  * A call at (x,y) peels, with [[XYCore.peel]], the smallest, by m, of the
  * caller's warm handle (if this engine returned it) and the known cores
  * below (x,y), each of which contains the [x,y]-core (nestedness); failing
  * those, the whole graph. The known cores are one list, least recently
  * used first: the core a call starts from moves to the back, and the core
  * it returns joins behind it. Once the cores hold more than 8·m (see
  * [[held]]), the list drops cores from the front. Use order, not return
  * order: a Dinkelbach step's core mostly lies inside a core the max-x·y
  * seed made many calls earlier, which serves step after step as a start.
  */
sealed abstract class PairEngine(localCutoff: Long) extends CoreEngine {

  /** The whole graph as a pair, kept. */
  protected def whole: PairState

  /** The cached canonical edges a ``Left`` pair's edges are in. */
  private[core] def base: DataFrame

  // every vertex is a source or a destination
  lazy val n: Long = whole.fold(_.vertexCount, _.n.toLong)

  // canonical edges have no isolated vertex: the graph is its own [1,1]-core
  def fullSub(): LocalDigraph = whole.getOrElse(LocalDigraph.fromEdges(base))

  /** The known cores, least recently used first. */
  private val known = mutable.ArrayBuffer.empty[PairCore]
  private var heldSize = 0L

  /** What the known cores hold, as a running sum: a driver digraph counts
    * its edges and Spark-side degrees their |S|+|T| ids, once per digraph
    * or degrees object however many known cores share it (by ``eq``).
    */
  private[core] def held: Long = heldSize

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    warm.foreach(w => require(w.x <= x && w.y <= y, s"invalid warm start [${w.x},${w.y}] for [$x,$y]"))
    val own = warm.collect { case h: PairCore if h.owner eq this => h }
    // on a tie a known core goes first, so a warm handle as large as it does not join too
    val start = (known.iterator ++ own).filter(h => h.x <= x && h.y <= y).minByOption(_.m)
    start.foreach(remember)
    val peeled = XYCore.peel(base, x, y, start.fold(whole)(_.pair), localCutoff)
    if (peeled.fold(_.m == 0, _.isEmpty)) return None
    val h = new PairCore(x, y, peeled, this)
    // a peel that removed no edge returns its start's core, which the
    // start, below (x,y) and now at the back, already stands for
    if (!start.exists(_.m == h.m)) remember(h)
    Some(h)
  }

  /** Moves ``h`` to the back of the known cores (it joins them if it is not
    * known), then drops cores from the front while they hold more than
    * 8·m. A core holds at most 2·m, so ``h`` stays.
    */
  private def remember(h: PairCore): Unit = {
    def shared(c: PairCore) = known.exists(_.body eq c.body)
    val i = known.indexOf(h)
    if (i >= 0) known.remove(i) else if (!shared(h)) heldSize += h.size
    known += h
    while (heldSize > PairEngine.HeldPerEdge * m) {
      val dropped = known.remove(0)
      if (!shared(dropped)) heldSize -= dropped.size
    }
  }
}

object PairEngine {

  /** The known cores' budget, in held edges per edge of the whole graph.
    * On CoreExact's benchmark graph, keeping every core held 17.7·m; 2·m
    * and 4·m kept little of its gain, 8·m kept all of it at half the heap.
    */
  private val HeldPerEdge = 8L
}

/** The one [[CoreHandle]]: a non-empty core as the [[PairState]] its
  * engine's peel returned (its exact degrees while its edges are still in
  * Spark, its edges once on the driver), with the engine that made it.
  */
final class PairCore private[core] (val x: Int, val y: Int, val pair: PairState,
                                   private[core] val owner: PairEngine) extends CoreHandle {
  def sSize: Long = pair.fold(_.s.length, _.sSize).toLong
  def tSize: Long = pair.fold(_.t.length, _.tSize).toLong
  def m: Long     = pair.fold(_.m, _.m.toLong)
  def sub(): LocalDigraph = pair.fold(d => LocalDigraph.fromEdges(owner.base, d.s, d.t), identity)
  def candidate(): Candidate = pair.fold(d => Candidate(d.s, d.t, d.m), Candidate.of)

  /** The digraph or the degrees this core holds, for identity checks. */
  private[core] def body: AnyRef = pair.fold(identity, identity)

  /** What this core holds: its edges on the driver, its |S|+|T| ids in Spark. */
  private[core] def size: Long = pair.fold(d => d.s.length.toLong + d.t.length, _.m.toLong)
}

/** Reference engine over a driver-local digraph: every pair is on the driver. */
final class LocalCoreEngine(g: LocalDigraph) extends PairEngine(Long.MaxValue) {
  def m: Long = g.m.toLong
  protected val whole: PairState = Right(g)
  private[core] def base: DataFrame = throw new IllegalStateException("a LocalCoreEngine has no Spark edges")
}

/** Production engine: Spark iterative peeling over cached edges.
  *
  * ``localCutoff`` — see [[XYCore.peel]]. A core with at most this many
  * edges reaches the driver once, as a ``LocalDigraph``: a later call at
  * an (x,y) dominating its own has its answer inside it (nestedness), and
  * is peeled there without a Spark job. A graph within the cutoff is its
  * own [1,1]-core, collected once as the whole pair. Above the cutoff, the
  * whole pair is the degrees ``n`` reads, kept.
  *
  * A core that reached its fixpoint in Spark has more edges than the
  * cutoff, so any driver core is smaller and is picked first. No call scans
  * the edges for degrees the driver already holds.
  */
final class SparkCoreEngine(edges0: DataFrame, localCutoff: Long = 400000L) extends PairEngine(localCutoff) {
  /** Canonicalized, cached base edge set all cores derive from. */
  val base: DataFrame = DigraphOps.canonicalize(edges0).cache()

  /** Edge count; this first action also fills the cache of ``base``. */
  lazy val m: Long = base.count()

  /** Every source and destination of ``base`` with its degree: one
    * [[EdgeScan.allDegrees]] pass, run at the first read (``n`` reads it
    * above the cutoff) and kept. Callers read it and must not write its
    * arrays: cold core calls peel from it.
    */
  lazy val allDegrees: PairDegrees = EdgeScan.allDegrees(base)

  protected lazy val whole: PairState =
    if (m <= localCutoff) Right(LocalDigraph.fromEdges(base)) else Left(allDegrees)

  def release(): Unit = { base.unpersist(); () }
}
