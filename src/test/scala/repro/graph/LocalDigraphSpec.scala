package repro.graph

import repro.{SparkSpec, TestGraphs}

/** Driver-side CSR digraph: construction, adjacency, edge counting. */
class LocalDigraphSpec extends SparkSpec {

  test("fromPairs drops self-loops and dedupes") {
    val g = LocalDigraph.fromPairs(Seq((1L, 1L), (1L, 2L), (1L, 2L), (2L, 3L)))
    assert(g.m === 2)
    assert(g.n === 3)
  }

  test("ids map back to original vertex ids (sorted)") {
    val g = LocalDigraph.fromPairs(Seq((10L, 5L), (5L, 42L)))
    assert(g.ids.toSeq === Seq(5L, 10L, 42L))
    assert(TestGraphs.edgePairs(g).toSet === Set((10L, 5L), (5L, 42L)))
  }

  test("degrees match a naive recount") {
    val pairs = TestGraphs.randomPairs(20, 60, seed = 1)
    val g = LocalDigraph.fromPairs(pairs)
    for (i <- 0 until g.n) {
      val id = g.ids(i)
      assert(g.outDeg(i) === pairs.count(_._1 == id), s"outDeg($id)")
      assert(g.inDeg(i) === pairs.count(_._2 == id), s"inDeg($id)")
    }
  }

  test("CSR adjacency is consistent with the edge list") {
    val g = TestGraphs.randomLocal(15, 40, seed = 2)
    val fromCsr = (0 until g.n).flatMap { u =>
      (g.outOff(u) until g.outOff(u + 1)).map(e => (g.ids(u), g.ids(g.outAdj(e))))
    }.toSet
    assert(fromCsr === TestGraphs.edgePairs(g).toSet)
    val fromCsrIn = (0 until g.n).flatMap { v =>
      (g.inOff(v) until g.inOff(v + 1)).map(e => (g.ids(g.inAdj(e)), g.ids(v)))
    }.toSet
    assert(fromCsrIn === TestGraphs.edgePairs(g).toSet)
  }

  test("edgesBetween with full masks counts all edges") {
    val g = TestGraphs.randomLocal(12, 30, seed = 3)
    val all = Array.fill(g.n)(true)
    assert(g.edgesBetween(all, all) === g.m.toLong)
  }

  test("edgesBetween matches a naive subset count") {
    val g = TestGraphs.randomLocal(12, 40, seed = 4)
    val rnd = new scala.util.Random(5)
    for (_ <- 1 to 10) {
      val inS = Array.fill(g.n)(rnd.nextBoolean())
      val inT = Array.fill(g.n)(rnd.nextBoolean())
      val naive = TestGraphs.edgePairs(g).count { case (u, v) =>
        inS(g.ids.indexOf(u)) && inT(g.ids.indexOf(v))
      }
      assert(g.edgesBetween(inS, inT) === naive.toLong)
    }
  }

  test("edgesBetween matches counting over id sets") {
    val g = TestGraphs.randomLocal(12, 40, seed = 6)
    val s = g.ids.take(5).toSet
    val t = g.ids.drop(4).toSet
    val inS = g.ids.map(s.contains)
    val inT = g.ids.map(t.contains)
    val byIds = TestGraphs.edgePairs(g).count { case (u, v) => s(u) && t(v) }
    assert(byIds.toLong === g.edgesBetween(inS, inT))
  }

  test("empty graph") {
    val g = LocalDigraph.fromPairs(Seq.empty)
    assert(g.n === 0 && g.m === 0 && TestGraphs.edgePairs(g).isEmpty)
  }

  test("single self-loop-only input yields empty graph") {
    val g = LocalDigraph.fromPairs(Seq((3L, 3L)))
    assert(g.n === 0 && g.m === 0)
  }

  test("fromEdges round-trips through a DataFrame") {
    val pairs = TestGraphs.randomPairs(10, 25, seed = 7)
    val g = LocalDigraph.fromEdges(TestGraphs.df(spark, pairs))
    assert(TestGraphs.edgePairs(g).toSet === pairs.toSet)
  }

  test("fromEdges rejects a frame that is not canonical edges") {
    import spark.implicits._
    intercept[IllegalArgumentException](LocalDigraph.fromEdges(Seq((1, 2)).toDF("src", "dst")))
    intercept[IllegalArgumentException](LocalDigraph.fromEdges(Seq((1L, 2L)).toDF("dst", "src")))
  }
}
