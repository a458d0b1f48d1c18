package repro.graph

import org.apache.spark.sql.DataFrame

/** Driver-side compressed digraph over remapped vertex indices 0..n-1.
  *
  * Used for (a) reference implementations that cross-validate the Spark
  * path, and (b) the flow networks of the exact algorithm, which are built
  * on core-pruned subgraphs small enough to solve on the driver.
  *
  * ``ids(i)`` maps the internal index ``i`` back to the original vertex id.
  */
final class LocalDigraph(val n: Int,
                         val src: Array[Int],
                         val dst: Array[Int],
                         val ids: Array[Long]) {
  require(ids.length == n, s"ids length ${ids.length} != n $n")
  val m: Int = src.length

  /** Out-adjacency as CSR: neighbors of u are outAdj(outOff(u) until outOff(u+1)). */
  lazy val (outOff, outAdj): (Array[Int], Array[Int]) = buildCsr(src, dst)
  lazy val (inOff, inAdj): (Array[Int], Array[Int])   = buildCsr(dst, src)

  private def buildCsr(from: Array[Int], to: Array[Int]): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < m) { off(from(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val adj = new Array[Int](m)
    val cur = java.util.Arrays.copyOf(off, n)
    i = 0
    while (i < m) { adj(cur(from(i))) = to(i); cur(from(i)) += 1; i += 1 }
    (off, adj)
  }

  def outDeg(u: Int): Int = outOff(u + 1) - outOff(u)
  def inDeg(v: Int): Int  = inOff(v + 1) - inOff(v)

  /** |E(S,T)| for index-based membership masks. */
  def edgesBetween(inS: Array[Boolean], inT: Array[Boolean]): Long = {
    var c = 0L
    var i = 0
    while (i < m) { if (inS(src(i)) && inT(dst(i))) c += 1; i += 1 }
    c
  }

  /** |E(S,T)| for original-id sets. */
  def edgesBetweenIds(s: Set[Long], t: Set[Long]): Long = {
    var c = 0L
    var i = 0
    while (i < m) { if (s.contains(ids(src(i))) && t.contains(ids(dst(i)))) c += 1; i += 1 }
    c
  }

  def edgePairs: Seq[(Long, Long)] =
    (0 until m).map(i => (ids(src(i)), ids(dst(i))))
}

object LocalDigraph {

  /** Build from raw id pairs; self-loops dropped, duplicates deduped. */
  def fromPairs(pairs: Seq[(Long, Long)]): LocalDigraph =
    fromCleanPairs(pairs.filter(p => p._1 != p._2).distinct.toArray)

  /** Build from pairs already known self-loop-free and deduped (core
    * subgraphs of a canonicalized graph). Avoids the dedup pass and uses
    * sort + binary search instead of a boxing hash map for id remapping.
    */
  def fromCleanPairs(clean: Array[(Long, Long)]): LocalDigraph = {
    val m = clean.length
    val all = new Array[Long](2 * m)
    var i = 0
    while (i < m) { val p = clean(i); all(2 * i) = p._1; all(2 * i + 1) = p._2; i += 1 }
    java.util.Arrays.sort(all)
    // unique
    var n = 0
    i = 0
    while (i < 2 * m) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    i = 0
    while (i < m) {
      val p = clean(i)
      src(i) = java.util.Arrays.binarySearch(ids, p._1)
      dst(i) = java.util.Arrays.binarySearch(ids, p._2)
      i += 1
    }
    new LocalDigraph(n, src, dst, ids)
  }

  /** Collect an edge DataFrame (columns src, dst) to the driver. */
  def fromEdges(edges: DataFrame): LocalDigraph =
    fromPairs(DigraphOps.collectPairs(edges).toSeq)
}
