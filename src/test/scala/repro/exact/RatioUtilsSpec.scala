package repro.exact

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Stern–Brocot interval search and the φ pruning geometry. */
class RatioUtilsSpec extends AnyFunSuite {

  test("simplest fraction in (0.5, 1.5) is 1") {
    assert(RatioUtils.simplestBetween(0.5, 1.5, 10) === Some((1L, 1L)))
  }

  test("simplest fraction in (1.2, 1.4) is 4/3") {
    assert(RatioUtils.simplestBetween(1.2, 1.4, 10) === Some((4L, 3L)))
  }

  test("simplest fraction in (0.3, 0.4) is 1/3") {
    assert(RatioUtils.simplestBetween(0.3, 0.4, 10) === Some((1L, 3L)))
  }

  test("simplest fraction in (2.1, 2.2) is 13/6") {
    // fractions in (2.1, 2.2): simplest has the smallest denominator
    val Some((p, q)) = RatioUtils.simplestBetween(2.1, 2.2, 100)
    assert(p.toDouble / q > 2.1 && p.toDouble / q < 2.2)
    // verify minimality of q by scan
    val better = (1L to q - 1).exists { qq =>
      (1L to 3 * qq).exists(pp => pp.toDouble / qq > 2.1 && pp.toDouble / qq < 2.2)
    }
    assert(!better, s"found simpler than $p/$q")
  }

  test("empty or inverted intervals give None") {
    assert(RatioUtils.simplestBetween(1.0, 1.0, 10).isEmpty)
    assert(RatioUtils.simplestBetween(2.0, 1.0, 10).isEmpty)
    assert(RatioUtils.simplestBetween(-2.0, -1.0, 10).isEmpty)
  }

  test("interval excluding its endpoints: (1/3, 1/2) -> 2/5") {
    val Some((p, q)) = RatioUtils.simplestBetween(1.0 / 3, 0.5, 10)
    assert(p === 2L && q === 5L)
  }

  test("tiny interval straddling a fraction returns that fraction") {
    // at double resolution, 3/7 lies strictly inside (3/7 - 1e-9, 3/7 + 1e-9)
    assert(RatioUtils.simplestBetween(3.0 / 7 - 1e-9, 3.0 / 7 + 1e-9, 10) === Some((3L, 7L)))
  }

  test("rational-boundary intervals respect open endpoints") {
    // (2, 2.2): the endpoint 11/5 = 2.2 is excluded; simplest inside is 13/6
    assert(RatioUtils.simplestBetween(2.0, 2.2, 20) === Some((13L, 6L)))
    // (1/3, 2/5): endpoints excluded; simplest inside has q >= 8 (3/8)
    assert(RatioUtils.simplestBetween(1.0 / 3, 0.4, 10) === Some((3L, 8L)))
  }

  test("property: result is always strictly inside the interval (500 random intervals)") {
    val rnd = new Random(42)
    for (_ <- 1 to 500) {
      val lo = 0.001 + rnd.nextDouble() * 50.0
      val hi = lo + 1e-6 + rnd.nextDouble() * 5.0
      RatioUtils.simplestBetween(lo, hi, 1000000000L).foreach { case (p, q) =>
        val v = p.toDouble / q
        assert(v > lo && v < hi, s"($lo,$hi) -> $p/$q")
        assert(p >= 1 && q >= 1)
      }
    }
  }

  test("property: no fraction in the interval has a smaller denominator (300 random intervals)") {
    val rnd = new Random(43)
    for (_ <- 1 to 300) {
      val a = (1 + rnd.nextInt(40)).toDouble / (1 + rnd.nextInt(40))
      val b = (1 + rnd.nextInt(40)).toDouble / (1 + rnd.nextInt(40))
      val (lo, hi) = (math.min(a, b), math.max(a, b))
      if (hi - lo > 1e-9) {
        val Some((p, q)) = RatioUtils.simplestBetween(lo, hi, 100)
        for (qq <- 1L until q; pp <- 1L to (hi * qq).toLong + 1) {
          val v = pp.toDouble / qq
          assert(!(v > lo && v < hi), s"$pp/$qq in ($lo,$hi) but got $p/$q")
        }
      }
    }
  }

  /** The smallest-(q, p) fraction p/q with p, q ≤ n strictly inside (lo, hi),
    * compared by its `Double` value, by scanning every (p, q).
    */
  private def scanSimplest(lo: Double, hi: Double, n: Int): Option[(Long, Long)] =
    (for (q <- 1 to n; p <- 1 to n if p.toDouble / q > lo && p.toDouble / q < hi)
      yield (p.toLong, q.toLong)).headOption

  test("simplestBetween equals a scan of every fraction p/q with p, q <= n <= 30") {
    val rnd = new Random(44)
    for (n <- 1 to 30) {
      // every candidate ratio p/q with p, q <= n, as its distinct values in ascending order
      val ratios = (for (p <- 1 to n; q <- 1 to n) yield p.toDouble / q).distinct.sorted.toVector
      val fractions = (0 to n + 1).flatMap(p => (1 to n).map(q => p.toDouble / q))
      def endpoint(): Double = rnd.nextInt(3) match {
        case 0 => fractions(rnd.nextInt(fractions.size))
        case 1 => rnd.nextDouble() * (n + 2) - 0.5
        case _ => ratios(rnd.nextInt(ratios.size))
      }
      val adjacent = ratios.zip(ratios.tail) // adjacent terms: nothing of order n strictly between
      val intervals = Seq.fill(200)((endpoint(), endpoint())) ++ adjacent ++
        Seq.fill(50) { val i = rnd.nextInt(ratios.size); (ratios(i), ratios(math.min(i + 2, ratios.size - 1))) }
      for ((lo, hi) <- intervals)
        assert(RatioUtils.simplestBetween(lo, hi, n) === scanSimplest(lo, hi, n), s"n=$n ($lo, $hi)")
    }
  }

  test("simplestBetween finds 1/n in (1/(n+1), 1/(n-1)) for n = 1,000,000") {
    val n = 1000000L
    assert(RatioUtils.simplestBetween(1.0 / (n + 1), 1.0 / (n - 1), n) === Some((1L, n)))
    assert(RatioUtils.simplestBetween(1.0 / (n + 1), 1.0 / (n - 1), n - 1).isEmpty)
  }

  test("phi bounds and monotonicity") {
    assert(math.abs(RatioUtils.phi(3.0, 3.0) - 1.0) < 1e-12)
    val ds = Seq(1.0, 1.5, 2.0, 4.0, 8.0)
    val vals = ds.map(r => RatioUtils.phi(1.0, r))
    assert(vals === vals.sorted.reverse) // decreasing as b moves away from a
  }

  test("pruneRadius inverts phi") {
    for (theta <- Seq(0.2, 0.5, 0.8, 0.95, 0.999)) {
      val r = RatioUtils.pruneRadius(theta)
      assert(math.abs(RatioUtils.phi(1.0, r) - theta) < 1e-9, s"theta=$theta r=$r")
      // inside the radius phi is above theta, outside below
      assert(RatioUtils.phi(1.0, r * 0.99) > theta)
      assert(RatioUtils.phi(1.0, r * 1.01) < theta)
    }
  }

  test("pruneRadius edge cases") {
    assert(RatioUtils.pruneRadius(1.0) === 1.0)
    assert(RatioUtils.pruneRadius(1.5) === 1.0)
    assert(RatioUtils.pruneRadius(0.0) > 1e100)
  }
}
