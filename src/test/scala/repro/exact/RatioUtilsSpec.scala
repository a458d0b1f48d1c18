package repro.exact

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Stern–Brocot interval search and the φ pruning geometry. */
class RatioUtilsSpec extends AnyFunSuite {

  test("simplest fraction in (0.5, 1.5) is 1") {
    assert(RatioUtils.simplestBetween(0.5, 1.5) === Some((1L, 1L)))
  }

  test("simplest fraction in (1.2, 1.4) is 4/3") {
    assert(RatioUtils.simplestBetween(1.2, 1.4) === Some((4L, 3L)))
  }

  test("simplest fraction in (0.3, 0.4) is 1/3") {
    assert(RatioUtils.simplestBetween(0.3, 0.4) === Some((1L, 3L)))
  }

  test("simplest fraction in (2.1, 2.2) is 13/6") {
    // fractions in (2.1, 2.2): simplest has the smallest denominator
    val Some((p, q)) = RatioUtils.simplestBetween(2.1, 2.2)
    assert(p.toDouble / q > 2.1 && p.toDouble / q < 2.2)
    // verify minimality of q by scan
    val better = (1L to q - 1).exists { qq =>
      (1L to 3 * qq).exists(pp => pp.toDouble / qq > 2.1 && pp.toDouble / qq < 2.2)
    }
    assert(!better, s"found simpler than $p/$q")
  }

  test("empty or inverted intervals give None") {
    assert(RatioUtils.simplestBetween(1.0, 1.0).isEmpty)
    assert(RatioUtils.simplestBetween(2.0, 1.0).isEmpty)
    assert(RatioUtils.simplestBetween(-2.0, -1.0).isEmpty)
  }

  test("interval excluding its endpoints: (1/3, 1/2) -> 2/5") {
    val Some((p, q)) = RatioUtils.simplestBetween(1.0 / 3, 0.5)
    assert(p === 2L && q === 5L)
  }

  test("tiny interval straddling a fraction returns that fraction") {
    // at double resolution, 3/7 lies strictly inside (3/7 - 1e-9, 3/7 + 1e-9)
    assert(RatioUtils.simplestBetween(3.0 / 7 - 1e-9, 3.0 / 7 + 1e-9) === Some((3L, 7L)))
  }

  test("rational-boundary intervals respect open endpoints") {
    // (2, 2.2): the endpoint 11/5 = 2.2 is excluded; simplest inside is 13/6
    assert(RatioUtils.simplestBetween(2.0, 2.2) === Some((13L, 6L)))
    // (1/3, 2/5): endpoints excluded; simplest inside has q >= 8 (3/8)
    assert(RatioUtils.simplestBetween(1.0 / 3, 0.4) === Some((3L, 8L)))
  }

  test("property: result is always strictly inside the interval (500 random intervals)") {
    val rnd = new Random(42)
    for (_ <- 1 to 500) {
      val lo = 0.001 + rnd.nextDouble() * 50.0
      val hi = lo + 1e-6 + rnd.nextDouble() * 5.0
      RatioUtils.simplestBetween(lo, hi).foreach { case (p, q) =>
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
        val Some((p, q)) = RatioUtils.simplestBetween(lo, hi)
        for (qq <- 1L until q; pp <- 1L to (hi * qq).toLong + 1) {
          val v = pp.toDouble / qq
          assert(!(v > lo && v < hi), s"$pp/$qq in ($lo,$hi) but got $p/$q")
        }
      }
    }
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

  test("candidateRatios streams every reduced p/q with p,q <= n in ascending order") {
    @annotation.tailrec
    def gcd(a: Int, b: Int): Int = if (b == 0) a else gcd(b, a % b)
    for (n <- 0 to 40) {
      val expected = (for (p <- 1 to n; q <- 1 to n if gcd(p, q) == 1) yield p.toDouble / q).sorted
      assert(RatioUtils.candidateRatios(n).toSeq === expected, s"n=$n")
    }
  }
}
