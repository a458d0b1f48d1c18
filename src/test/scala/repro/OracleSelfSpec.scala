package repro

/** The DuckDB oracle itself: equality passes, inequality is caught. */
class OracleSelfSpec extends SparkSpec {
  import spark.implicits._

  test("identical aggregations pass") {
    val df = Seq((1L, "a"), (2L, "a"), (3L, "b")).toDF("k", "g")
    Oracle.assertEquivalent(
      df.groupBy("g").count().select($"g", $"count".cast("string").as("cnt")),
      "SELECT g, CAST(COUNT(*) AS VARCHAR) AS cnt FROM t GROUP BY g",
      "t" -> df)
  }

  test("a wrong result is rejected") {
    val df = Seq((1L, "a"), (2L, "a")).toDF("k", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.groupBy("g").count().select($"g", ($"count" + 1).cast("string").as("cnt")),
        "SELECT g, CAST(COUNT(*) AS VARCHAR) AS cnt FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("equal rows pass in any order, even when their joined strings collide") {
    // both rows join to "1\u00012\u00013" with a \u0001 separator; DuckDB
    // returns them in the opposite order to Spark
    val df = Seq(("1", "2\u00013"), ("1\u00012", "3")).toDF("a", "b")
    Oracle.assertEquivalent(df.orderBy("a"), "SELECT a, b FROM t ORDER BY a DESC", "t" -> df)
  }

  test("column-name mismatches are rejected") {
    val df = Seq((1L, "a")).toDF("k", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select($"k".as("wrong")),
        "SELECT k FROM t",
        "t" -> df)
    }
  }
}
