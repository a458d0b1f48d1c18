package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Summary statistics of a directed graph (Table-2-style row). */
final case class GraphStats(n: Long, m: Long, nSrc: Long, nDst: Long,
                            maxOutDeg: Long, maxInDeg: Long)

/** DataFrame operations over simple directed graphs.
  *
  * Edges are DataFrames with two LONG columns ``src`` and ``dst``. All
  * algorithms in this repo canonicalize first: self-loops dropped,
  * duplicate edges deduped (the paper's datasets are simple digraphs).
  */
object DigraphOps {

  /** Normalize an edge DataFrame: long-typed columns, no self-loops, deduped. */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
      .where(col("src") =!= col("dst"))
      .dropDuplicates("src", "dst")

  /** Distinct vertices (endpoints of at least one edge), column ``id``. */
  def vertices(edges: DataFrame): DataFrame =
    edges.select(col("src").as("id")).union(edges.select(col("dst").as("id"))).distinct()

  /** Out-degree per source vertex, columns ``id``, ``deg``. */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))

  /** In-degree per destination vertex, columns ``id``, ``deg``. */
  def inDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("dst").as("id")).agg(count(lit(1)).as("deg"))

  /** Directed density ρ(S,T) = |E(S,T)| / sqrt(|S|·|T|) (Kannan–Vinay). */
  def density(m: Long, sSize: Long, tSize: Long): Double =
    if (sSize <= 0 || tSize <= 0) 0.0
    else m.toDouble / math.sqrt(sSize.toDouble * tSize.toDouble)

  /** Fixed-ratio surrogate ρ'_a(S,T) = 2m / (|S|/√a + √a·|T|). AM–GM gives
    * ρ'_a ≤ ρ with equality iff |S|/|T| = a.
    */
  def surrogate(m: Long, sSize: Long, tSize: Long, a: Double): Double =
    if (sSize <= 0 || tSize <= 0) 0.0
    else 2.0 * m / (sSize / math.sqrt(a) + math.sqrt(a) * tSize)

  /** Graph summary statistics. */
  def stats(edges: DataFrame): GraphStats = {
    val e   = edges.cache()
    val m   = e.count()
    val n   = vertices(e).count()
    val row = e
      .agg(countDistinct(col("src")).as("ns"), countDistinct(col("dst")).as("nt"))
      .head()
    val maxOut = if (m == 0) 0L else outDegrees(e).agg(max("deg")).head().getLong(0)
    val maxIn  = if (m == 0) 0L else inDegrees(e).agg(max("deg")).head().getLong(0)
    GraphStats(n, m, row.getLong(0), row.getLong(1), maxOut, maxIn)
  }

  /** Build an edge DataFrame from in-memory pairs (tests, toy graphs). */
  def edgesDf(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("src", "dst")
  }
}
