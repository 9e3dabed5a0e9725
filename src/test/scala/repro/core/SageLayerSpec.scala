package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.DMat

class SageLayerSpec extends AnyFunSuite {

  private val idLayer = SageLayer(DMat.eye(2), DMat.eye(2), DMat.zeros(1, 2), Act.Id)

  test("signature carries the partial-gather annotation") {
    val sig = idLayer.signature
    assert(sig.kind == "sage" && sig.partialGather && sig.activation == "id")
    assert(sig.inDim == 2 && sig.outDim == 2)
  }

  test("scatterPayload is the hidden state itself") {
    val h = Array(1.0, 2.0)
    assert(idLayer.scatterPayload(h) eq h)
  }

  test("applyEdge scales by the edge weight") {
    assert(idLayer.applyEdge(Array(2.0, 4.0), 0.5).toSeq == Seq(1.0, 2.0))
    val p = Array(2.0, 4.0)
    assert(idLayer.applyEdge(p, 1.0) eq p) // w=1 fast path
  }

  test("initAgg pools") {
    idLayer.initAgg(Array(1.0, 2.0), 3.0) match {
      case Pooled(s, w) => assert(s.toSeq == Seq(1.0, 2.0) && w == 3.0)
      case other        => fail(s"$other")
    }
  }

  test("applyNode with identity weights = h + weighted mean") {
    // two in-messages with weights 1 and 3: mean = (m1*1 + m2*3)/(1+3)
    val m1 = idLayer.applyEdge(Array(2.0, 0.0), 1.0)
    val m2 = idLayer.applyEdge(Array(4.0, 8.0), 3.0)
    val agg = Agg.merge(idLayer.initAgg(m1, 1.0), idLayer.initAgg(m2, 3.0))
    val out = idLayer.applyNode(Array(10.0, 10.0), agg)
    // weighted mean = ((2,0)+ (12,24))/4 = (3.5, 6)
    assert(out.toSeq == Seq(13.5, 16.0))
  }

  test("applyNode on EmptyAgg uses zero mean (isolated vertex)") {
    val out = idLayer.applyNode(Array(7.0, -1.0), EmptyAgg)
    assert(out.toSeq == Seq(7.0, -1.0))
  }

  // Named after the removed partial-gather-off form: SAGE messages are
  // always pooled, and a union is an error, not an empty neighbourhood.
  test("applyNode accepts a Unioned agg (partial-gather disabled path)") {
    val unioned = Unioned(List(Array(2.0, 0.0), Array(4.0, 8.0)))
    intercept[IllegalStateException](idLayer.applyNode(Array(1.0, 2.0), unioned))
  }

  test("bias and activation are applied") {
    val l = SageLayer(DMat.eye(2), DMat.eye(2), DMat.rowVec(Array(-100.0, 1.0)), Act.Relu)
    val out = l.applyNode(Array(1.0, 2.0), EmptyAgg)
    assert(out.toSeq == Seq(0.0, 3.0)) // relu(1-100)=0, relu(2+1)=3
  }

  test("general weights: applyNode matches manual computation") {
    val wSelf = DMat.randn(3, 2, 1.0, 1)
    val wNbr = DMat.randn(3, 2, 1.0, 2)
    val bias = DMat.randn(1, 2, 1.0, 3)
    val l = SageLayer(wSelf, wNbr, bias, Act.Id)
    val h = Array(1.0, -2.0, 0.5)
    val mean = Array(0.2, 0.4, -0.6)
    val agg = Pooled(mean.map(_ * 2.0), 2.0) // wsum 2, sum = 2*mean
    val out = l.applyNode(h, agg)
    val expect = (0 until 2).map { j =>
      (0 until 3).map(i => h(i) * wSelf(i, j)).sum +
        (0 until 3).map(i => mean(i) * wNbr(i, j)).sum + bias(0, j)
    }
    out.zip(expect).foreach { case (a, e) => assert(math.abs(a - e) < 1e-12) }
  }

  test("dimension mismatch in construction throws") {
    intercept[IllegalArgumentException](
      SageLayer(DMat.eye(2), DMat.eye(3), DMat.zeros(1, 2), Act.Id))
    intercept[IllegalArgumentException](
      SageLayer(DMat.eye(2), DMat.eye(2), DMat.zeros(1, 3), Act.Id))
  }
}
