package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}

/** DataFrame digraph primitives, each checked against the DuckDB oracle. */
class DigraphOpsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val pairs = Seq(
    (1L, 2L), (2L, 3L), (3L, 1L), (1L, 3L), (4L, 1L), (4L, 2L), (4L, 3L), (2L, 1L))
  private lazy val edges = DigraphOps.canonicalize(TestGraphs.df(spark, pairs))

  test("canonicalize drops self-loops") {
    val raw = TestGraphs.df(spark, Seq((1L, 1L), (1L, 2L), (2L, 2L)))
    assert(DigraphOps.canonicalize(raw).collect().toSet ===
      Set(org.apache.spark.sql.Row(1L, 2L)))
  }

  test("canonicalize dedupes duplicate edges") {
    val raw = TestGraphs.df(spark, Seq((1L, 2L), (1L, 2L), (2L, 3L), (1L, 2L)))
    assert(DigraphOps.canonicalize(raw).count() === 2)
  }

  test("canonicalize of an empty DataFrame is empty") {
    assert(DigraphOps.canonicalize(TestGraphs.df(spark, Seq.empty)).count() === 0)
  }

  // the degrees and vertices that stats reads, from its one allDegrees pass
  private lazy val all = EdgeScan.allDegrees(edges)

  test("out-degrees match DuckDB") {
    Oracle.assertEquivalent(
      all.s.toSeq.zip(all.out.toSeq.map(_.toString)).toDF("id", "deg"),
      "SELECT src AS id, CAST(COUNT(*) AS VARCHAR) AS deg FROM edges GROUP BY src",
      "edges" -> edges)
  }

  test("in-degrees match DuckDB") {
    Oracle.assertEquivalent(
      all.t.toSeq.zip(all.in.toSeq.map(_.toString)).toDF("id", "deg"),
      "SELECT dst AS id, CAST(COUNT(*) AS VARCHAR) AS deg FROM edges GROUP BY dst",
      "edges" -> edges)
  }

  test("vertices match DuckDB distinct endpoints") {
    val ids = (all.s ++ all.t).distinct
    Oracle.assertEquivalent(
      ids.toSeq.toDF("id"),
      "SELECT DISTINCT id FROM (SELECT src AS id FROM edges UNION ALL SELECT dst FROM edges)",
      "edges" -> edges)
    assert(all.vertexCount === ids.length.toLong)
  }

  test("pairSubgraph matches DuckDB semi-joins") {
    val s = Array(1L, 2L, 4L)
    val t = Array(1L, 3L)
    Oracle.assertEquivalent(
      TestGraphs.pairSubgraph(edges, s, t),
      "SELECT e.src AS src, e.dst AS dst FROM edges e " +
        "WHERE e.src IN (SELECT id FROM s) AND e.dst IN (SELECT id FROM t)",
      "edges" -> edges, "s" -> s.toSeq.toDF("id"), "t" -> t.toSeq.toDF("id"))
  }

  test("density formula basics") {
    assert(DigraphOps.density(6, 3, 3) === 2.0)
    assert(DigraphOps.density(4, 1, 4) === 2.0)
    assert(DigraphOps.density(0, 5, 5) === 0.0)
    assert(DigraphOps.density(3, 0, 5) === 0.0)
  }

  test("stats computes n, m and max degrees") {
    val st = DigraphOps.stats(all)
    assert(st.n === 4)
    assert(st.m === 8)
    assert(st.maxOutDeg === 3) // vertex 4
    assert(st.maxInDeg === 3)  // vertices 1 and 3
  }

  test("stats on empty graph") {
    val st = DigraphOps.stats(EdgeScan.allDegrees(DigraphOps.canonicalize(TestGraphs.df(spark, Seq.empty))))
    assert(st.n === 0 && st.m === 0 && st.maxOutDeg === 0 && st.maxInDeg === 0)
  }

  test("pairSubgraph with empty sides is empty") {
    assert(TestGraphs.pairSubgraph(edges, Array.empty[Long], Array(1L)).count() === 0)
  }
}
