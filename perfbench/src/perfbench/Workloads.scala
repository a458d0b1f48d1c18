package perfbench

/** Counter-based splitmix64: every draw is a pure function of
  * (seed, stream, index), so a workload's graph is the same on every host,
  * for every Spark thread count and partitioning.
  */
object SplitMix {
  def mix(z0: Long): Long = {
    var z = z0 + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Uniform double in [0, 1). */
  def unit(seed: Long, stream: Long, i: Long): Double =
    (mix(mix(seed ^ mix(stream)) + i) >>> 11) * (1.0 / (1L << 53))
}

/** A generated digraph. ``srcRaw``/``dstRaw`` are the raw draws, duplicates
  * and self-loops included: they are what the program receives. ``edges``
  * is the canonical edge set (sorted, distinct, no self-loops, packed as
  * src << 32 | dst) that the output checks recount from; it is computed
  * here, independently of the program's own canonicalization.
  */
final class Graph(val srcRaw: Array[Long], val dstRaw: Array[Long]) {
  require(srcRaw.length == dstRaw.length)

  val edges: Array[Long] = {
    val packed = new Array[Long](srcRaw.length)
    var k = 0
    var i = 0
    while (i < srcRaw.length) {
      require(srcRaw(i) > 0 && srcRaw(i) < (1L << 31) && dstRaw(i) > 0 && dstRaw(i) < (1L << 31))
      if (srcRaw(i) != dstRaw(i)) { packed(k) = (srcRaw(i) << 32) | dstRaw(i); k += 1 }
      i += 1
    }
    java.util.Arrays.sort(packed, 0, k)
    var u = 0
    i = 0
    while (i < k) {
      if (u == 0 || packed(u - 1) != packed(i)) { packed(u) = packed(i); u += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(packed, u)
  }

  def m: Long = edges.length.toLong
  def src(i: Int): Long = edges(i) >>> 32
  def dst(i: Int): Long = edges(i) & 0xFFFFFFFFL

  /** Largest vertex id (ids are 1..maxId). */
  val maxId: Int = {
    var mx = 0L
    var i = 0
    while (i < srcRaw.length) { mx = math.max(mx, math.max(srcRaw(i), dstRaw(i))); i += 1 }
    mx.toInt
  }

  /** Vertices that are an endpoint of at least one canonical edge. */
  lazy val n: Long = {
    val seen = new Array[Boolean](maxId + 1)
    var c = 0L
    var i = 0
    while (i < edges.length) {
      val u = src(i).toInt
      val v = dst(i).toInt
      if (!seen(u)) { seen(u) = true; c += 1 }
      if (!seen(v)) { seen(v) = true; c += 1 }
      i += 1
    }
    c
  }

  /** Order-sensitive hash of the sorted canonical edge set. */
  lazy val hash: Long = {
    var h = 0L
    var i = 0
    while (i < edges.length) { h = SplitMix.mix(h ^ edges(i)); i += 1 }
    h
  }

  /** The same graph under a bijection of its ids 1..maxId drawn from ``seed``
    * (Fisher–Yates over splitmix64 draws).
    */
  def relabel(seed: Long): Graph = {
    val perm = Array.tabulate(maxId + 1)(_.toLong)
    var i = maxId
    while (i > 1) {
      val j = 1 + (SplitMix.unit(seed, 3, i) * i).toInt
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    new Graph(srcRaw.map(v => perm(v.toInt)), dstRaw.map(v => perm(v.toInt)))
  }
}

object Gen {

  /** Power-law digraph in the shape of ``SynthGraphs.powerLaw`` (skew 1):
    * endpoint ranks are log-uniform over [1, n], destination ranks permuted
    * by an affine map coprime to n so in-hubs differ from out-hubs.
    */
  def powerLaw(seed: Long, n: Int, mTarget: Int): Graph = {
    val draws = (mTarget * 1.25).toInt + 16
    var mul = math.max(2L, n / 2L)
    while (gcd(mul, n.toLong) != 1) mul += 1
    def rank(u: Double): Long = math.min(n.toLong, math.max(1L, math.pow(n.toDouble, u).toLong))
    val src = new Array[Long](draws)
    val dst = new Array[Long](draws)
    var i = 0
    while (i < draws) {
      src(i) = rank(SplitMix.unit(seed, 0, i))
      dst(i) = ((rank(SplitMix.unit(seed, 1, i)) - 1) * mul + 17) % n + 1
      i += 1
    }
    new Graph(src, dst)
  }

  /** Uniform background of ``bgDraws`` draws over ids 1..n plus a planted
    * block S = {1..sSize}, T = {n−tSize+1..n}, each S×T edge present with
    * probability p (the shape of ``SynthGraphs.planted``).
    */
  def planted(seed: Long, n: Int, bgDraws: Int, sSize: Int, tSize: Int, p: Double): Graph = {
    val src = scala.collection.mutable.ArrayBuilder.make[Long]
    val dst = scala.collection.mutable.ArrayBuilder.make[Long]
    var i = 0
    while (i < bgDraws) {
      src += (SplitMix.unit(seed, 0, i) * n).toLong + 1
      dst += (SplitMix.unit(seed, 1, i) * n).toLong + 1
      i += 1
    }
    var k = 0
    while (k < sSize * tSize) {
      if (SplitMix.unit(seed, 2, k) < p) {
        src += (k / tSize).toLong + 1
        dst += (k % tSize).toLong + (n - tSize) + 1
      }
      k += 1
    }
    new Graph(src.result(), dst.result())
  }

  @annotation.tailrec
  private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
}

sealed trait Query
object Query {
  case object CoreApprox extends Query
  case object CoreExact  extends Query
}

/** Values every seed's graph must reproduce: n, m, x*·y*, and for exact
  * workloads the optimum as (|E(S,T)|, |S|, |T|); ``hash`` is the edge-set
  * hash at ``Workload.defaultSeed``.
  */
final case class Recorded(n: Long, m: Long, xy: Long, hash: Long,
                          opt: Option[(Long, Long, Long)] = None)

/** A named workload. ``shape(k)`` draws the graph's structure at 1/k of the
  * full size from a fixed structure seed; the untimed warm-up runs
  * ``warmupReps`` repetitions at 1/``warmupScale`` of the size. The run's
  * seed relabels the graph's vertices. Seeds therefore give distinct inputs
  * (ids, and with them partitioning, sort orders and id-ordered tie-breaks)
  * of the same structure, so the work per query, and with it the time, is
  * comparable across seeds: drawing a fresh structure per seed moved
  * CoreExact's flow count between 154 and 225 (13 seeds), wider than any
  * usable bound.
  */
final case class Workload(name: String, query: Query, shape: Int => Graph, warmupScale: Int,
                          warmupReps: Int, recorded: Recorded) {
  def graph(seed: Long, scale: Int = 1): Graph = shape(scale).relabel(seed)
}

object Workload {
  val defaultSeed = 1L
  private val structureSeed = 0x5EEDL

  // exact-pl keeps one repetition at a few seconds on a 4-core host, and its
  // times still fall over the first three; approx-spark has to exceed the
  // engine's 400k-edge local cutoff, where a full-size warm-up query would
  // cost ~20 s. perfbench/README.md says why each workload exists.
  val all: Seq[Workload] = Seq(
    Workload("exact-pl", Query.CoreExact,
      k => Gen.powerLaw(structureSeed, 3000 / k, 26000 / k), 1, 3,
      Recorded(n = 2968, m = 23414, xy = 940, hash = 0x345724d44942814fL, opt = Some((3299L, 142L, 63L)))),
    Workload("approx-spark", Query.CoreApprox,
      k => Gen.planted(structureSeed, 50000 / k, 420000 / k, 40, 60, 0.5), 8, 1,
      Recorded(n = 50000, m = 421174, xy = 368, hash = 0x4746f12d5cedd3cbL))
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
