package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.DigraphOps

/** Deterministic synthetic directed graphs standing in for the paper's
  * real datasets (offline container — see DESIGN.md "Substitutions").
  *
  * All generators return canonicalized edge DataFrames (``src``, ``dst``
  * LONG; no self-loops; deduped), deterministic in (params, seed) for a
  * fixed session parallelism.
  */
object SynthGraphs {

  /** Uniform (Erdős–Rényi-style) digraph with ~``m`` distinct edges. */
  def er(spark: SparkSession, n: Long, m: Long, seed: Long = 7): DataFrame = {
    val draws = (m * 1.03).toLong + 16
    val raw = spark.range(draws).select(
      (rand(seed) * n + 1).cast("long").as("src"),
      (rand(seed + 1) * n + 1).cast("long").as("dst"))
    DigraphOps.canonicalize(raw)
  }

  /** Skewed digraph with zipf-like degrees: endpoint ranks are drawn
    * log-uniformly over [1, n] (P(rank = k) ∝ 1/k), giving the rank-1
    * hub an expected degree ≈ m/ln n and a power-law degree profile with
    * exponent ≈ 2 — the regime of all the paper's real graphs.
    * Destination ranks are decorrelated from source ranks by an affine
    * permutation so in-hubs ≠ out-hubs.
    */
  def powerLaw(spark: SparkSession, n: Long, m: Long, seed: Long = 11): DataFrame = {
    val draws = (m * 1.25).toLong + 16
    def rank(seedCol: Long) =
      least(lit(n), greatest(lit(1L),
        pow(lit(n.toDouble), rand(seedCol)).cast("long")))
    // decorrelate: permute destination ids with an affine map coprime to n
    val mul = LazyCoprime.coprimeNear(n, math.max(2L, n / 2))
    val raw = spark.range(draws).select(
      rank(seed).as("src"),
      (((rank(seed + 1) - 1) * mul + 17) % n + 1).as("dst"))
    DigraphOps.canonicalize(raw)
  }

  /** ER background plus a planted dense (S,T) block: S = {1..sSize},
    * T = {n−tSize+1..n}, each S×T edge present with probability p.
    * With p·√(sSize·tSize) well above the background density, the planted
    * block is (near-)optimal — used for approximation-quality studies.
    */
  def planted(spark: SparkSession, n: Long, mBase: Long, sSize: Int, tSize: Int,
              p: Double, seed: Long = 13): DataFrame = {
    require(sSize + tSize <= n, "planted blocks must fit disjointly")
    val bg = er(spark, n, mBase, seed)
    val block = spark.range(sSize.toLong * tSize)
      .where(rand(seed + 2) < p)
      .select(
        (col("id") / tSize).cast("long") + 1 as "src",
        (col("id") % tSize) + (n - tSize) + 1 as "dst")
    DigraphOps.canonicalize(bg.unionByName(block))
  }

  /** A directed star: center 0 → k leaves. ρopt = √k (handy oracle). */
  def star(spark: SparkSession, k: Int): DataFrame =
    DigraphOps.edgesDf(spark, (1 to k).map(i => (0L, i.toLong)))

  /** Complete bidirected clique on h vertices: ρopt = h−1. */
  def biClique(spark: SparkSession, h: Int): DataFrame =
    DigraphOps.edgesDf(spark,
      for { i <- 0 until h; j <- 0 until h if i != j } yield (i.toLong, j.toLong))

  /** Complete bipartite S×T (all sSize·tSize edges): ρopt = √(sSize·tSize). */
  def fullBipartite(spark: SparkSession, sSize: Int, tSize: Int): DataFrame =
    DigraphOps.edgesDf(spark,
      for { i <- 0 until sSize; j <- 0 until tSize }
        yield (i.toLong, (sSize + j).toLong))

  /** Small fixed digraph with a non-trivial DDS (used across tests). */
  def toy(spark: SparkSession): DataFrame =
    DigraphOps.edgesDf(spark, Seq(
      (1L, 2L), (2L, 1L), (1L, 3L), (3L, 1L), (2L, 3L), (3L, 2L), // bidirected triangle
      (4L, 1L), (4L, 2L), (5L, 3L), (6L, 4L), (7L, 7L), (6L, 5L)  // fringe (+1 self loop, dropped)
    ))

  private object LazyCoprime {
    @annotation.tailrec
    private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
    /** Smallest value ≥ start coprime with n. */
    def coprimeNear(n: Long, start: Long): Long = {
      var v = start
      while (gcd(v, n) != 1) v += 1
      v
    }
  }
}
