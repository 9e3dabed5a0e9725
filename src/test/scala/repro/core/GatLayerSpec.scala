package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.DMat

class GatLayerSpec extends AnyFunSuite {

  private def layer(heads: Int = 2, in: Int = 3, perHead: Int = 2,
                    combine: String = "concat", act: Act = Act.Id, seed: Long = 9): GatLayer =
    GatLayer(
      Array.tabulate(heads)(k => DMat.glorot(in, perHead, seed + k)),
      Array.tabulate(heads)(k => DMat.randn(perHead, 1, 0.5, seed + 10 + k).a),
      Array.tabulate(heads)(k => DMat.randn(perHead, 1, 0.5, seed + 20 + k).a),
      act, combine)

  test("signature says partialGather=false (attention is not associative)") {
    val sig = layer().signature
    assert(sig.kind == "gat" && !sig.partialGather && sig.heads == 2)
  }

  test("outDim: concat multiplies by heads, mean does not") {
    assert(layer(heads = 3, perHead = 4, combine = "concat").outDim == 12)
    assert(layer(heads = 3, perHead = 4, combine = "mean").outDim == 4)
  }

  test("payload layout is [Wh, srcScore] per head") {
    val l = layer(heads = 2, in = 3, perHead = 2)
    val h = Array(1.0, 0.5, -1.0)
    val p = l.scatterPayload(h)
    assert(p.length == 2 * 3)
    val wh0 = VecOps.vecMat(h, l.w(0))
    assert(math.abs(p(0) - wh0(0)) < 1e-12 && math.abs(p(1) - wh0(1)) < 1e-12)
    assert(math.abs(p(2) - VecOps.dot(wh0, l.aSrc(0))) < 1e-12)
  }

  test("applyEdge passes the payload through unchanged") {
    val l = layer()
    val p = Array(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert(l.applyEdge(p, 0.3) eq p)
  }

  test("initAgg unions") {
    layer().initAgg(Array(1.0), 2.0) match {
      case Unioned(List(m)) => assert(m.toSeq == Seq(1.0))
      case other            => fail(s"$other")
    }
  }

  test("applyNode on EmptyAgg equals pure self-attention (alpha=1)") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(1.0, -0.5, 2.0)
    val out = l.applyNode(h, EmptyAgg)
    val wh = VecOps.vecMat(h, l.w(0))
    // single message → softmax weight 1 → output is Wh itself
    out.zip(wh).foreach { case (a, e) => assert(math.abs(a - e) < 1e-12) }
  }

  test("applyNode rejects Pooled aggregates") {
    intercept[IllegalStateException](layer().applyNode(Array(1.0, 2.0, 3.0), Pooled(Array(1.0), 1.0)))
  }

  test("attention weights are a convex combination (bounded output)") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(0.1, 0.2, 0.3)
    val msgs = (1 to 5).map(i => l.scatterPayload(Array(i * 0.1, -i * 0.1, 0.05 * i))).toList
    val out = l.applyNode(h, Unioned(msgs))
    // output must lie within the per-coordinate min/max of candidate Wh's
    val candidates = (l.scatterPayload(h) :: msgs).map(_.take(2))
    (0 until 2).foreach { j =>
      val lo = candidates.map(_(j)).min
      val hi = candidates.map(_(j)).max
      assert(out(j) >= lo - 1e-12 && out(j) <= hi + 1e-12)
    }
  }

  test("identical messages make attention irrelevant") {
    val l = layer(heads = 2, combine = "concat")
    val h = Array(1.0, 1.0, 1.0)
    val p = l.scatterPayload(h)
    // all messages equal the self payload → output = Wh per head
    val out = l.applyNode(h, Unioned(List(p.clone(), p.clone())))
    val expect = Array(VecOps.vecMat(h, l.w(0)), VecOps.vecMat(h, l.w(1))).flatten
    out.zip(expect).foreach { case (a, e) => assert(math.abs(a - e) < 1e-10) }
  }

  test("mean combine averages heads of a single-message case") {
    val l = layer(heads = 2, combine = "mean")
    val h = Array(0.3, -0.7, 1.1)
    val out = l.applyNode(h, EmptyAgg)
    val expect = (0 until 2).map { j =>
      (VecOps.vecMat(h, l.w(0))(j) + VecOps.vecMat(h, l.w(1))(j)) / 2.0
    }
    out.zip(expect).foreach { case (a, e) => assert(math.abs(a - e) < 1e-12) }
  }

  test("activation applies after head combination") {
    val l = layer(heads = 1, combine = "mean", act = Act.Relu)
    val h = Array(-5.0, -5.0, -5.0)
    assert(l.applyNode(h, EmptyAgg).forall(_ >= 0.0))
  }

  test("softmax is shift-invariant: scaling payload scores consistently keeps order") {
    val l = layer(heads = 1, combine = "mean")
    val h = Array(0.5, 0.5, 0.5)
    val m1 = l.scatterPayload(Array(2.0, 0.0, 0.0))
    val m2 = l.scatterPayload(Array(0.0, 2.0, 0.0))
    val out1 = l.applyNode(h, Unioned(List(m1, m2)))
    val out2 = l.applyNode(h, Unioned(List(m2, m1)))
    // message order must not matter
    out1.zip(out2).foreach { case (a, b) => assert(math.abs(a - b) < 1e-12) }
  }

  test("bad combine mode rejected") {
    intercept[IllegalArgumentException](layer(combine = "sum"))
  }
}
