package repro

import repro.bench.Datasets
import repro.graph.DigraphOps

/** Synthetic generators: determinism, shape, and oracle cross-checks. */
class SynthGraphsSpec extends SparkSpec {

  test("er produces roughly the requested number of distinct edges") {
    val e = SynthGraphs.er(spark, 500, 3000, seed = 1)
    val m = e.count()
    assert(m > 2400 && m <= 3700, s"m=$m")
    assert(e.where("src = dst").count() === 0)
    assert(e.groupBy("src", "dst").count().where("count > 1").count() === 0)
  }

  test("er is deterministic in its seed") {
    val a = SynthGraphs.er(spark, 200, 1000, seed = 5).collect().toSet
    val b = SynthGraphs.er(spark, 200, 1000, seed = 5).collect().toSet
    val c = SynthGraphs.er(spark, 200, 1000, seed = 6).collect().toSet
    assert(a === b)
    assert(a !== c)
  }

  test("er vertex ids stay in range") {
    val e = SynthGraphs.er(spark, 100, 500, seed = 2)
    val row = e.agg(org.apache.spark.sql.functions.min("src"),
      org.apache.spark.sql.functions.max("src"),
      org.apache.spark.sql.functions.min("dst"),
      org.apache.spark.sql.functions.max("dst")).head()
    assert(row.getLong(0) >= 1 && row.getLong(1) <= 101)
    assert(row.getLong(2) >= 1 && row.getLong(3) <= 101)
  }

  test("powerLaw produces a skewed out-degree distribution") {
    val e = SynthGraphs.powerLaw(spark, 2000, 20000, seed = 3)
    val degs = TestGraphs.outDegrees(e).select("deg").collect().map(_.getLong(0))
    val maxDeg = degs.max
    val avg = degs.sum.toDouble / degs.length
    assert(maxDeg > 10 * avg, s"max=$maxDeg avg=$avg — expected heavy tail")
  }

  test("powerLaw decorrelates in-hubs from out-hubs") {
    val e = SynthGraphs.powerLaw(spark, 1000, 10000, seed = 4).cache()
    val topOut = TestGraphs.outDegrees(e).orderBy(org.apache.spark.sql.functions.desc("deg"))
      .limit(5).select("id").collect().map(_.getLong(0)).toSet
    val topIn = TestGraphs.inDegrees(e).orderBy(org.apache.spark.sql.functions.desc("deg"))
      .limit(5).select("id").collect().map(_.getLong(0)).toSet
    assert((topOut intersect topIn).size < 5, "hubs fully aligned — permutation broken")
    e.unpersist()
  }

  test("planted graph contains a dense block of the right shape") {
    val n = 2000L
    val e = SynthGraphs.planted(spark, n, 5000, 20, 30, 0.8, seed = 5).cache()
    val s = (1L to 20L).toArray
    val t = ((n - 30 + 1) to n).toArray
    val blockEdges = TestGraphs.pairSubgraph(e, s, t).count()
    // expect ~0.8 * 600 = 480 block edges plus a few background ones
    assert(blockEdges > 400, s"block edges $blockEdges")
    val density = DigraphOps.density(blockEdges, 20, 30)
    assert(density > 15.0) // p * sqrt(600) ≈ 19.6
    e.unpersist()
  }

  test("planted rejects overlapping blocks") {
    intercept[IllegalArgumentException](
      SynthGraphs.planted(spark, 10, 10, 8, 8, 0.5))
  }

  // Table 2's values, which a 4-core host produced; the draws do not depend
  // on the session's parallelism, so every host must reproduce them
  test("Table 2's PL-S and ER-S have the same edge count at any session parallelism") {
    assert(Datasets.plS.build(spark).count() === 17679)
    assert(Datasets.erS.build(spark).count() === 2253)
  }

  test("toy graph drops its self-loop on canonicalization") {
    val e = DigraphOps.canonicalize(SynthGraphs.toy(spark))
    assert(e.where("src = 7 or dst = 7").count() === 0)
    assert(e.count() === 11)
  }

  test("generator edge counts match DuckDB") {
    val e = SynthGraphs.er(spark, 100, 400, seed = 7)
    import spark.implicits._
    Oracle.assertEquivalent(
      e.groupBy("src").count().select($"src", $"count".cast("string").as("cnt")),
      "SELECT src, CAST(COUNT(*) AS VARCHAR) AS cnt FROM edges GROUP BY src",
      "edges" -> e)
  }
}
