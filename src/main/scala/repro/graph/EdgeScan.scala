package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.LongType
import scala.collection.mutable.ArrayBuilder
import scala.reflect.ClassTag

/** Degrees of the pair-subgraph E(s,t): ``out(i)`` is the out-degree of
  * ``s(i)`` into ``t``, ``in(j)`` the in-degree of ``t(j)`` from ``s`` and
  * ``m`` = |E(s,t)|. ``s`` and ``t`` are sorted and distinct; a vertex with
  * no edge in E(s,t) keeps its place with degree 0.
  */
final case class PairDegrees(s: Array[Long], out: Array[Int], t: Array[Long], in: Array[Int], m: Long) {

  /** |s ∪ t|, by one merge of the two sorted id arrays. */
  def vertexCount: Long = {
    var i = 0
    var j = 0
    var c = 0L
    while (i < s.length || j < t.length) {
      if (j == t.length || (i < s.length && s(i) < t(j))) i += 1
      else if (i == s.length || t(j) < s(i)) j += 1
      else { i += 1; j += 1 }
      c += 1
    }
    c
  }
}

object PairDegrees {
  val empty: PairDegrees = PairDegrees(Array.empty, Array.empty, Array.empty, Array.empty, 0L)
}

/** Narrow passes over a canonical edge DataFrame (see
  * [[DigraphOps.canonicalize]]: LONG columns src and dst, no self-loops or
  * duplicates).
  *
  * Each pass is one map-only Spark job over the frame's physical rows
  * (``queryExecution.toRdd``, planned once per frame): one stage, no
  * shuffle, no planned join and no ``Row`` conversion, so over a cached
  * frame it is one read of the cache. Rows are reused by the scan, so a
  * task reads each value at once. Each task returns primitive arrays that
  * the driver sums or concatenates. Alive sets, sorted and distinct (the
  * ``Candidate`` invariant), ship as broadcast variables that are destroyed
  * after the job, and each task finds an edge's endpoints in them by
  * binary search; [[positions]] returns those positions themselves, so a
  * collected E(s,t) reaches the driver in index space.
  *
  * A pass's [[PairDegrees]] are exact, so they are kept rather than
  * scanned for again: the engine keeps the whole graph's and each
  * Spark-peeled core's, and [[repro.core.XYCore]] starts a core call from
  * them.
  */
object EdgeScan {

  /** Every source and destination with its degree: each task returns its
    * sorted distinct sources and destinations with their counts, and the
    * driver merges them.
    */
  def allDegrees(edges: DataFrame): PairDegrees = {
    val parts = scan(edges, null, null) { (rows, _, _) =>
      val src = ArrayBuilder.make[Long]
      val dst = ArrayBuilder.make[Long]
      while (rows.hasNext) { val r = rows.next(); src += r.getLong(0); dst += r.getLong(1) }
      (runs(src.result()), runs(dst.result()))
    }
    val (s, out) = merge(parts.map(_._1))
    val (t, in)  = merge(parts.map(_._2))
    PairDegrees(s, out, t, in, out.map(_.toLong).sum)
  }

  /** The degrees of E(s,t): every task counts into ``Int`` arrays indexed
    * by position in ``s`` and ``t``, and the driver sums them.
    */
  def degrees(edges: DataFrame, s: Array[Long], t: Array[Long]): PairDegrees = {
    val parts = scan(edges, s, t) { (rows, ss, ts) =>
      val out = new Array[Int](ss.length)
      val in  = new Array[Int](ts.length)
      var m = 0L
      while (rows.hasNext) {
        val r = rows.next()
        val i = java.util.Arrays.binarySearch(ss, r.getLong(0))
        if (i >= 0) {
          val j = java.util.Arrays.binarySearch(ts, r.getLong(1))
          if (j >= 0) { out(i) += 1; in(j) += 1; m += 1 }
        }
      }
      (out, in, m)
    }
    val out = new Array[Int](s.length)
    val in  = new Array[Int](t.length)
    for ((o, i, _) <- parts) { addTo(out, o); addTo(in, i) }
    PairDegrees(s, out, t, in, parts.map(_._3).sum)
  }

  /** Every edge, as (sources, destinations) in the frame's row order. */
  def edges(edges: DataFrame): (Array[Long], Array[Long]) = {
    val parts = scan(edges, null, null) { (rows, _, _) =>
      val src = ArrayBuilder.make[Long]
      val dst = ArrayBuilder.make[Long]
      while (rows.hasNext) { val r = rows.next(); src += r.getLong(0); dst += r.getLong(1) }
      (src.result(), dst.result())
    }
    (Array.concat(parts.map(_._1).toIndexedSeq: _*), Array.concat(parts.map(_._2).toIndexedSeq: _*))
  }

  /** The edges of E(s,t) in the frame's row order, as the positions of
    * their endpoints in ``s`` and in ``t``: the positions the tasks find by
    * binary search anyway, so the driver maps no id.
    */
  def positions(edges: DataFrame, s: Array[Long], t: Array[Long]): (Array[Int], Array[Int]) = {
    val parts = scan(edges, s, t) { (rows, ss, ts) =>
      val src = ArrayBuilder.make[Int]
      val dst = ArrayBuilder.make[Int]
      while (rows.hasNext) {
        val r = rows.next()
        val i = java.util.Arrays.binarySearch(ss, r.getLong(0))
        if (i >= 0) {
          val j = java.util.Arrays.binarySearch(ts, r.getLong(1))
          if (j >= 0) { src += i; dst += j }
        }
      }
      (src.result(), dst.result())
    }
    (Array.concat(parts.map(_._1).toIndexedSeq: _*), Array.concat(parts.map(_._2).toIndexedSeq: _*))
  }

  /** One result per partition of ``edges``, in partition order, from one
    * map-only job whose tasks see ``s`` and ``t`` (broadcast, unless null).
    */
  private def scan[U: ClassTag](edges: DataFrame, s: Array[Long], t: Array[Long])(
      task: (Iterator[InternalRow], Array[Long], Array[Long]) => U): Array[U] = {
    val sc = edges.sparkSession.sparkContext
    val alive = Option(s).map(_ => (sc.broadcast(s), sc.broadcast(t)))
    try {
      rows(edges).mapPartitions { it =>
        Iterator.single(task(it, alive.map(_._1.value).orNull, alive.map(_._2.value).orNull))
      }.collect()
    } finally alive.foreach { case (sb, tb) => sb.destroy(); tb.destroy() }
  }

  /** The physical rows of ``edges``: src at ordinal 0, dst at 1. */
  private def rows(edges: DataFrame): RDD[InternalRow] = {
    require(edges.schema.map(f => (f.name, f.dataType)) == Seq("src" -> LongType, "dst" -> LongType),
            s"need canonical edges (src LONG, dst LONG), got ${edges.schema.simpleString}")
    edges.queryExecution.toRdd
  }

  /** ``ids``, sorted in place, as (distinct ids, occurrences of each). */
  private def runs(ids: Array[Long]): (Array[Long], Array[Int]) = {
    java.util.Arrays.sort(ids)
    val distinct = ArrayBuilder.make[Long]
    val count = ArrayBuilder.make[Int]
    var i = 0
    while (i < ids.length) {
      var j = i + 1
      while (j < ids.length && ids(j) == ids(i)) j += 1
      distinct += ids(i); count += j - i
      i = j
    }
    (distinct.result(), count.result())
  }

  /** The per-task runs summed into one: the distinct ids and their totals. */
  private def merge(parts: Array[(Array[Long], Array[Int])]): (Array[Long], Array[Int]) = {
    val ids = runs(Array.concat(parts.map(_._1).toIndexedSeq: _*))._1
    val total = new Array[Int](ids.length)
    for ((part, count) <- parts) {
      var k = 0
      while (k < part.length) { total(java.util.Arrays.binarySearch(ids, part(k))) += count(k); k += 1 }
    }
    (ids, total)
  }

  private def addTo(acc: Array[Int], part: Array[Int]): Unit = {
    var i = 0
    while (i < acc.length) { acc(i) += part(i); i += 1 }
  }
}
