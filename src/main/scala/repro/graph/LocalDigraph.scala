package repro.graph

import org.apache.spark.sql.DataFrame

/** Driver-side compressed digraph over remapped vertex indices 0..n-1.
  *
  * The one driver-side edge format: collected graphs and cores, the local
  * peeler's input and output, warm starts and the flow networks of the
  * exact algorithm all use it. As a core it is the pair (S, T, E(S,T)):
  * S is the vertices with an out-edge, T those with an in-edge. Original
  * ids are read back only to build an answer (``Candidate.of``).
  *
  * ``ids(i)`` maps the internal index ``i`` back to the original vertex id;
  * ``ids`` is ascending, so index order is id order.
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

  /** Masks of the vertices with an out-edge (``hasOut``) and with an in-edge. */
  def hasOut: Array[Boolean] = marks(src)
  def hasIn: Array[Boolean]  = marks(dst)

  /** |S| and |T|: the vertices with an out-edge and with an in-edge. */
  lazy val sSize: Int = count(hasOut)
  lazy val tSize: Int = count(hasIn)
  def isEmpty: Boolean  = m == 0
  def nonEmpty: Boolean = !isEmpty

  private def count(mask: Array[Boolean]): Int = {
    var c = 0
    var v = 0
    while (v < n) { if (mask(v)) c += 1; v += 1 }
    c
  }

  private def marks(ends: Array[Int]): Array[Boolean] = {
    val b = new Array[Boolean](n)
    var i = 0
    while (i < ends.length) { b(ends(i)) = true; i += 1 }
    b
  }

  /** Original ids of the masked vertices, ascending. */
  def idsOf(mask: Array[Boolean]): Array[Long] = {
    val out = new Array[Long](count(mask))
    var c = 0
    var v = 0
    while (v < n) { if (mask(v)) { out(c) = ids(v); c += 1 }; v += 1 }
    out
  }

  /** |E(S,T)| for index-based membership masks. */
  def edgesBetween(inS: Array[Boolean], inT: Array[Boolean]): Long = {
    var c = 0L
    var i = 0
    while (i < m) { if (inS(src(i)) && inT(dst(i))) c += 1; i += 1 }
    c
  }

  /** The edges from ``inS`` into ``inT``, in this graph's edge order, over
    * their endpoints only (indices compacted, ids still ascending). Returns
    * this graph when every edge and vertex stays.
    */
  def restrict(inS: Array[Boolean], inT: Array[Boolean]): LocalDigraph = {
    val keep = new Array[Boolean](m)
    val index = new Array[Int](n) // new index + 1; 0 = dropped
    var m2 = 0
    var i = 0
    while (i < m) {
      if (inS(src(i)) && inT(dst(i))) { keep(i) = true; index(src(i)) = 1; index(dst(i)) = 1; m2 += 1 }
      i += 1
    }
    var n2 = 0
    var v = 0
    while (v < n) { if (index(v) != 0) { n2 += 1; index(v) = n2 }; v += 1 }
    if (m2 == m && n2 == n) return this
    val ids2 = new Array[Long](n2)
    v = 0
    while (v < n) { if (index(v) != 0) ids2(index(v) - 1) = ids(v); v += 1 }
    val src2 = new Array[Int](m2)
    val dst2 = new Array[Int](m2)
    var k = 0
    i = 0
    while (i < m) {
      if (keep(i)) { src2(k) = index(src(i)) - 1; dst2(k) = index(dst(i)) - 1; k += 1 }
      i += 1
    }
    new LocalDigraph(n2, src2, dst2, ids2)
  }
}

object LocalDigraph {

  /** Build from raw id pairs; self-loops dropped, duplicates deduped. */
  def fromPairs(pairs: Seq[(Long, Long)]): LocalDigraph = {
    val clean = pairs.filter(p => p._1 != p._2).distinct
    fromClean(clean.map(_._1).toArray, clean.map(_._2).toArray)
  }

  /** Collect a canonical edge DataFrame (columns src, dst; no self-loops or
    * duplicates, see [[DigraphOps.canonicalize]]) to the driver, keeping
    * its row order.
    */
  def fromEdges(edges: DataFrame): LocalDigraph = {
    val rows = edges.select("src", "dst").collect()
    fromClean(rows.map(_.getLong(0)), rows.map(_.getLong(1)))
  }

  /** Build from edges ``src(i) → dst(i)`` already known self-loop-free and
    * deduped. Ids are numbered by sort + binary search, not a boxing hash map.
    */
  private def fromClean(srcIds: Array[Long], dstIds: Array[Long]): LocalDigraph = {
    val m = srcIds.length
    val all = new Array[Long](2 * m)
    System.arraycopy(srcIds, 0, all, 0, m)
    System.arraycopy(dstIds, 0, all, m, m)
    java.util.Arrays.sort(all)
    // unique
    var n = 0
    var i = 0
    while (i < 2 * m) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    i = 0
    while (i < m) {
      src(i) = java.util.Arrays.binarySearch(ids, srcIds(i))
      dst(i) = java.util.Arrays.binarySearch(ids, dstIds(i))
      i += 1
    }
    new LocalDigraph(n, src, dst, ids)
  }
}
