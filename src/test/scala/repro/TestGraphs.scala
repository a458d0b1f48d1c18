package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{DigraphOps, LocalDigraph}
import scala.util.Random

/** Deterministic random digraphs for tests (driver-side, seed-exact). */
object TestGraphs {

  /** ~m distinct random edges over vertices 1..n, no self-loops. */
  def randomPairs(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    Iterator
      .continually((rnd.nextInt(n).toLong + 1, rnd.nextInt(n).toLong + 1))
      .filter(p => p._1 != p._2)
      .take(m * 2)
      .toSeq
      .distinct
      .take(m)
  }

  def randomLocal(n: Int, m: Int, seed: Long): LocalDigraph =
    LocalDigraph.fromPairs(randomPairs(n, m, seed))

  /** The edges of ``g`` as original-id pairs, in its edge order. */
  def edgePairs(g: LocalDigraph): Seq[(Long, Long)] =
    (0 until g.m).map(i => (g.ids(g.src(i)), g.ids(g.dst(i))))

  def df(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    DigraphOps.edgesDf(spark, pairs)

  /** Skewed random digraph: preferential-style endpoints (hubs). */
  def skewedPairs(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    def draw(): Long = {
      val u = rnd.nextDouble()
      math.min(n.toLong, math.max(1L, math.round(math.pow(1.0 / (u + 1e-9), 1.2))))
    }
    Iterator
      .continually((draw(), (draw() * 7919 % n) + 1))
      .filter(p => p._1 != p._2)
      .take(m * 2)
      .toSeq
      .distinct
      .take(m)
  }
}
