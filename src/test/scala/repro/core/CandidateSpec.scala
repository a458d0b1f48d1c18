package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The exact density order the exact search keeps its best pair by. */
class CandidateSpec extends AnyFunSuite {

  private def cand(m: Long, s: Int, t: Int) =
    Candidate(Array.tabulate(s)(_.toLong), Array.tabulate(t)(_.toLong), m)

  test("denserThan orders two pairs whose Double densities are equal") {
    // 255025/√(505·505) = 505 exactly; 99969799/√(197932·197988) is above
    // 505 by about 1e-14 relative, below a Double's resolution:
    // 99969799²·505² − 255025²·197932·197988 = 255025 > 0
    val a = cand(255025L, 505, 505)
    val b = cand(99969799L, 197932, 197988)
    assert(a.density === b.density)
    assert(b.denserThan(a))
    assert(!a.denserThan(b))
  }

  test("denserThan is false both ways on a real tie") {
    // 6/√(3·3) = 4/√(1·4) = 2: 6²·1·4 = 4²·3·3
    val (a, b) = (cand(6L, 3, 3), cand(4L, 1, 4))
    assert(!a.denserThan(b) && !b.denserThan(a))
  }

  test("denserThan against empty pairs") {
    assert(cand(1L, 1, 1).denserThan(Candidate.empty))
    assert(!Candidate.empty.denserThan(cand(1L, 1, 1)))
    assert(!Candidate.empty.denserThan(Candidate.empty))
    assert(cand(1L, 1, 1).denserThan(cand(0L, 2, 2)))
  }
}
