package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{broadcast, col, count, lit}
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

  private val star9 = (1 to 9).map(i => (0L, i.toLong))

  /** Edge-case inputs run through every peeler and exact engine: (name,
    * raw pairs, ρopt when known in closed form).
    */
  val adversarial: Seq[(String, Seq[(Long, Long)], Option[Double])] = Seq(
    ("empty graph", Seq.empty, Some(0.0)),
    ("one-sided star k=9", star9, Some(3.0)),
    ("reversed star k=16", (1 to 16).map(i => (i.toLong, 0L)), Some(4.0)),
    ("star k=25 at ids near Long.MaxValue", (1 to 25).map(i => (Long.MaxValue, Long.MaxValue - i)),
     Some(5.0)),
    ("random graph at ids near Long.MaxValue",
     randomPairs(12, 40, seed = 31).map { case (u, v) => (Long.MaxValue - u, Long.MaxValue - v) },
     None),
    ("star k=9 with every edge 7 times and self-loops",
     Seq.fill(7)(star9).flatten ++ Seq((0L, 0L), (3L, 3L), (3L, 3L)), Some(3.0)),
    ("random graph with duplicates and self-loops",
     randomPairs(10, 30, seed = 32).flatMap(p => Seq.fill(1 + (p._1 % 4).toInt)(p)) ++
       (1 to 10).map(i => (i.toLong, i.toLong)),
     None))

  def df(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    DigraphOps.edgesDf(spark, pairs)

  /** The pair-subgraph E(s,t) as a DataFrame plan: semi-joins against the
    * id arrays, broadcast explicitly (the test session disables automatic
    * broadcast joins). The form of E(s,t) that `EdgeScan` is checked against.
    */
  def pairSubgraph(edges: DataFrame, s: Array[Long], t: Array[Long]): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges
      .join(broadcast(s.toSeq.toDF("__s")), col("src") === col("__s"), "left_semi")
      .join(broadcast(t.toSeq.toDF("__t")), col("dst") === col("__t"), "left_semi")
  }

  /** Out-degree per source of ``edges`` as a DataFrame plan, columns ``id``, ``deg``. */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))

  /** In-degree per destination of ``edges`` as a DataFrame plan, columns ``id``, ``deg``. */
  def inDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("dst").as("id")).agg(count(lit(1)).as("deg"))

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
