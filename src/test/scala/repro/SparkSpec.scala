package repro

import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession
import org.scalatest.{BeforeAndAfterAll, Failed, Outcome}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Base for every test that uses Spark: one local-mode SparkSession for
  * the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt: from
  * SPARK_DRIVER_MEM when set, else half the physical memory clamped to
  * 2–8 GB. Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  *
  * A test fails if it leaves data cached in the shared session (an engine
  * it did not release, a frame it did not unpersist): a later ``cache()``
  * of the same plan would be a no-op, and the first release would uncache
  * a frame another reader still uses. The check runs after each test, as
  * ``Dataset.unpersist`` uncaches by plan: a leak would otherwise be hidden
  * by a later test that caches and unpersists an equal plan. It runs again
  * after the suite, for what ``beforeAll`` or a suite-level field caches.
  * The cache is cleared after each check, so a leak fails only the test or
  * suite that made it.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  /** True iff the shared session held no cached data; clears it either way. */
  private def cacheWasClean(): Boolean = {
    val clean = spark.sharedState.cacheManager.isEmpty
    spark.catalog.clearCache()
    clean
  }

  override def withFixture(test: NoArgTest): Outcome = {
    val outcome = super.withFixture(test)
    if (cacheWasClean() || !outcome.isSucceeded) outcome
    else Failed(s"${test.name} left data cached in the shared session")
  }

  override def afterAll(): Unit =
    try assert(cacheWasClean(), s"${getClass.getSimpleName} left data cached in the shared session")
    finally super.afterAll()
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that tells the heap the JVM got and the
    // cores the session runs on.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"maxHeap=${Runtime.getRuntime.maxMemory >> 20}MB " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** The number of stages each job that ``body`` runs has run, read from
    * the status tracker. The scheduler also lists the stages of a cached
    * frame's own lineage under a job that reads the cache, as skipped
    * stages that never start; a job with no shuffle runs one stage.
    */
  def jobShapes(body: => Unit): Seq[Int] = {
    val sc = shared.sparkContext
    val tracker = sc.statusTracker
    val group = s"shape-${Random.nextLong()}"
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
    // the tracker learns of jobs from listener events, in order: once a
    // marker job run after them shows as finished, so do they
    val marker = group + "-marker"
    sc.setJobGroup(marker, marker)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30000000000L
    while (!tracker.getJobIdsForGroup(marker).flatMap(tracker.getJobInfo(_))
             .exists(_.status == JobExecutionStatus.SUCCEEDED)) {
      assert(System.nanoTime() < deadline, "the status tracker never saw the marker job")
      Thread.sleep(10)
    }
    tracker.getJobIdsForGroup(group).sorted.toSeq.map { job =>
      tracker.getJobInfo(job).get.stageIds.count(tracker.getStageInfo(_).exists(_.submissionTime > 0))
    }
  }
}
