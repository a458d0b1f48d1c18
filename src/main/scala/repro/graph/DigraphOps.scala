package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

/** Summary statistics of a directed graph (Table-2-style row). */
final case class GraphStats(n: Long, m: Long, maxOutDeg: Long, maxInDeg: Long)

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

  /** Directed density ρ(S,T) = |E(S,T)| / sqrt(|S|·|T|) (Kannan–Vinay). */
  def density(m: Long, sSize: Long, tSize: Long): Double =
    if (sSize <= 0 || tSize <= 0) 0.0
    else m.toDouble / math.sqrt(sSize.toDouble * tSize.toDouble)

  /** Graph summary statistics from the whole graph's degrees (an
    * [[EdgeScan.allDegrees]] pass, or the one a ``SparkCoreEngine`` keeps).
    */
  def stats(d: PairDegrees): GraphStats =
    GraphStats(d.vertexCount, d.m, d.out.maxOption.getOrElse(0).toLong, d.in.maxOption.getOrElse(0).toLong)

  /** Build an edge DataFrame from in-memory pairs (tests, toy graphs). */
  def edgesDf(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("src", "dst")
  }
}
