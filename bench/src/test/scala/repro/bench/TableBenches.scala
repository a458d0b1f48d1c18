package repro.bench

import repro.SparkSpec

/** One suite per evaluation table; each runs the table as [[Tables]]
  * configures it, prints paper-style rows and writes them under
  * bench/results/. Assertions are sanity checks on the shape of
  * the reproduced result (who wins, agreement of exact modes), not on
  * absolute runtimes.
  */
class Table2DatasetsBench extends SparkSpec {
  test("table 2: dataset statistics") {
    val rows = Tables.table2(spark)
    assert(rows.size === Datasets.all.size)
    assert(rows.forall(_.contains("ρ(CoreApprox)")))
  }
}

class Table3ExactBench extends SparkSpec {
  test("table 3: exact algorithm runtimes") {
    val rows = Tables.table3(spark)
    assert(rows.size === 4)
  }
}

class Table4ApproxTimeBench extends SparkSpec {
  test("table 4: approximation runtimes") {
    val rows = Tables.table4(spark)
    assert(rows.exists(_.contains("CoreApprox")))
    assert(rows.exists(_.contains("BSApprox")))
    assert(rows.exists(_.contains("PeelApprox")))
  }
}

class Table5ApproxQualityBench extends SparkSpec {
  test("table 5: approximation quality") {
    val rows = Tables.table5(spark)
    assert(rows.size === 4)
    // CoreApprox must honour its 2-approximation bound against the reference
    for (r <- rows) {
      val m = "CoreApprox=([0-9.]+)".r.findFirstMatchIn(r)
      assert(m.isDefined, r)
      assert(m.get.group(1).toDouble >= 0.5 - 1e-9, r)
    }
  }
}

class Table6ScalabilityBench extends SparkSpec {
  test("table 6: scalability of CoreApprox") {
    val rows = Tables.table6(spark)
    assert(rows.size === 4)
  }
}

class Table7FlowPruningBench extends SparkSpec {
  test("table 7: core pruning shrinks flow networks") {
    val rows = Tables.table7(spark)
    assert(rows.size === 3)
    def maxNodes(row: String): Option[Long] =
      "nodes\\(max\\)=([0-9]+)".r.findFirstMatchIn(row).map(_.group(1).toLong)
    (maxNodes(rows.head), maxNodes(rows(1))) match {
      case (Some(dcMax), Some(coreMax)) =>
        assert(coreMax <= dcMax, s"pruned flows should be smaller: $coreMax vs $dcMax")
      case _ => // one side had no flows; acceptable (e.g. DNF)
    }
  }
}
