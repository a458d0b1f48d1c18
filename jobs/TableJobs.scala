package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Datasets, Tables}

/** spark-submit entrypoints, one per evaluation table.
  *
  * Usage: spark-submit --class repro.jobs.Table3Exact <jar> [args]
  * Results are printed and appended under bench/results/.
  */
private[jobs] object JobSession {
  def get(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
}

object Table2Datasets {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table2")
    Tables.table2(spark)
    spark.stop()
  }
}

object Table3Exact {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table3")
    val budget = args.headOption.map(_.toLong).getOrElse(120000L)
    Tables.table3(spark, Seq(
      Datasets.toy  -> Tables.ExactBudgets(budget, budget, budget),
      Datasets.erXS -> Tables.ExactBudgets(budget, budget, budget),
      Datasets.erS  -> Tables.ExactBudgets(budget, budget, budget),
      Datasets.plS  -> Tables.ExactBudgets(budget, budget, budget, runBaseline = false),
    ))
    spark.stop()
  }
}

object Table4ApproxTime {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table4")
    Tables.table4(spark)
    spark.stop()
  }
}

object Table5ApproxQuality {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table5")
    Tables.table5(spark, Seq(
      Datasets.plS   -> Some(300000L),
      Datasets.erM   -> None,
      Datasets.plM   -> None,
      Datasets.plant -> Some(300000L),
    ))
    spark.stop()
  }
}

object Table6Scalability {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table6")
    Tables.table6(spark)
    spark.stop()
  }
}

object Table7FlowPruning {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("table7")
    Tables.table7(spark)
    spark.stop()
  }
}
