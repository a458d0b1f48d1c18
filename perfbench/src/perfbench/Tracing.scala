package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core.{Candidate, CoreEngine, CoreHandle, CoreSub}
import scala.collection.mutable

/** One timed interval. Spans of one repetition share ``run``; ``parent`` is
  * the span that was open when this one started (0 = none).
  */
final case class Span(id: Int, parent: Int, run: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder for the driver thread. The open span's id is
  * published as a Spark local property so that the listener can parent each
  * Spark job to the driver span that issued it.
  */
final class Tracer(sc: SparkContext) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 1
  var run = 0

  /** Offset from epoch milliseconds (Spark event times) to System.nanoTime. */
  val epochToNanoNs: Long = System.currentTimeMillis() * 1000000L - System.nanoTime()

  def span[A](name: String)(f: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(0)
    open = id :: open
    sc.setLocalProperty(Tracer.SpanProperty, id.toString)
    val t0 = System.nanoTime()
    try f
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      sc.setLocalProperty(Tracer.SpanProperty, if (parent == 0) null else parent.toString)
      done += Span(id, parent, run, name, t0, t1)
    }
  }

  def spans: Seq[Span] = done.toSeq
}

object Tracer {
  val SpanProperty = "perfbench.span"

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes
}

/** Per-engine counters of the calls made into the `core` layer. */
final class CoreCounters {
  var calls, warm, empty, edgesOut, allocBytes, busyNs = 0L
  var firstCallNs = 0L
  var subCalls, subNs, fullSubNs = 0L
}

private final class TracedHandle(val inner: CoreHandle, tracer: Tracer, c: CoreCounters)
    extends CoreHandle {
  def x: Int = inner.x
  def y: Int = inner.y
  def sSize: Long = inner.sSize
  def tSize: Long = inner.tSize
  def m: Long = inner.m
  override def density: Double = inner.density
  def candidate(): Candidate = inner.candidate()
  def sub(): CoreSub = {
    val t0 = System.nanoTime()
    try tracer.span("core.sub")(inner.sub())
    finally { c.subCalls += 1; c.subNs += System.nanoTime() - t0 }
  }
}

/** ``CoreEngine`` decorator that times every ``core()``, ``fullSub()`` and
  * handle ``sub()`` call. Handles it returns wrap the inner engine's; they
  * are unwrapped before being passed back as ``warm``, because each engine
  * recognises only its own handle class as a warm start and would silently
  * peel from scratch on a foreign one.
  */
final class TracedEngine(inner: CoreEngine, tracer: Tracer) extends CoreEngine {
  val counters = new CoreCounters

  def n: Long = inner.n
  def m: Long = inner.m

  def fullSub(): CoreSub = {
    val t0 = System.nanoTime()
    try tracer.span("graph.fullSub")(inner.fullSub())
    finally counters.fullSubNs += System.nanoTime() - t0
  }

  def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = {
    val w = warm.map {
      case h: TracedHandle => h.inner
      case h               => h
    }
    val c = counters
    val a0 = Tracer.allocatedBytes()
    val t0 = System.nanoTime()
    val r = tracer.span("core.core")(inner.core(x, y, w))
    val dt = System.nanoTime() - t0
    c.allocBytes += Tracer.allocatedBytes() - a0
    if (c.calls == 0) c.firstCallNs = dt
    c.calls += 1
    c.busyNs += dt
    if (w.nonEmpty) c.warm += 1
    r match {
      case None    => c.empty += 1; None
      case Some(h) => c.edgesOut += h.m; Some(new TracedHandle(h, tracer, c))
    }
  }
}

/** Spark activity per stage and job, attributed afterwards to driver spans
  * through the span id each job and stage carries as a local property.
  * Read it only after ``SparkContext.stop()``, which drains the event queue.
  */
final class SparkRecorder extends SparkListener {
  /** ``exec`` is the SQL execution (one DataFrame action) the job belongs to, or -1. */
  final class Job(val id: Int, val span: Int, val exec: Long, val startMs: Long) {
    var endMs: Long = startMs
  }
  final class Stage(val span: Int) {
    var completed = false
    var tasks, runMs, shuffleWrite, shuffleRead, result = 0L
  }

  val jobs   = mutable.LinkedHashMap.empty[Int, Job]
  val stages = mutable.LinkedHashMap.empty[(Int, Int), Stage]

  private def prop(p: java.util.Properties, key: String): Option[String] =
    Option(p).flatMap(q => Option(q.getProperty(key)))
  private def spanOf(p: java.util.Properties): Int = prop(p, Tracer.SpanProperty).fold(0)(_.toInt)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs(e.jobId) = new Job(e.jobId, spanOf(e.properties),
      prop(e.properties, "spark.sql.execution.id").fold(-1L)(_.toLong), e.time)
  }
  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    val i = e.stageInfo
    stages((i.stageId, i.attemptNumber())) = new Stage(spanOf(e.properties))
  }
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    stages.get((i.stageId, i.attemptNumber())).foreach(_.completed = true)
  }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (s <- stages.get((e.stageId, e.stageAttemptId)); tm <- Option(e.taskMetrics)) {
      s.tasks += 1
      s.runMs += tm.executorRunTime
      s.shuffleWrite += tm.shuffleWriteMetrics.bytesWritten
      s.shuffleRead += tm.shuffleReadMetrics.totalBytesRead
      s.result += tm.resultSize
    }
  }
}

/** Spark totals of one phase (setup or query) of one repetition. */
final case class SparkTotals(jobs: Int, stages: Int, tasks: Long, jobWallMs: Long, taskRunMs: Long,
                             shuffleWriteBytes: Long, shuffleReadBytes: Long, resultBytes: Long,
                             jobSpans: Seq[Span])

object SparkTotals {

  /** Totals of the jobs and stages issued under span ``root`` (any depth). */
  def under(root: Span, spans: Seq[Span], rec: SparkRecorder, epochToNanoNs: Long): SparkTotals = {
    val byId = spans.iterator.map(s => s.id -> s).toMap
    def inside(id: Int): Boolean =
      id == root.id || byId.get(id).exists(s => s.parent != 0 && inside(s.parent))
    val jobs = rec.jobs.values.filter(j => inside(j.span)).toSeq
    val stages = rec.stages.values.filter(s => inside(s.span)).toSeq
    SparkTotals(
      jobs = jobs.size,
      stages = stages.count(_.completed),
      tasks = stages.map(_.tasks).sum,
      jobWallMs = jobs.map(j => j.endMs - j.startMs).sum,
      taskRunMs = stages.map(_.runMs).sum,
      shuffleWriteBytes = stages.map(_.shuffleWrite).sum,
      shuffleReadBytes = stages.map(_.shuffleRead).sum,
      resultBytes = stages.map(_.result).sum,
      jobSpans = jobs.map(j => Span(-j.id - 1, j.span, root.run, s"spark.job.${j.id}",
                                    j.startMs * 1000000L - epochToNanoNs,
                                    j.endMs * 1000000L - epochToNanoNs)))
  }
}
