package repro.core

import org.scalatest.funsuite.AnyFunSuite

class AggSpec extends AnyFunSuite {

  private def pooled(vs: Double*): Pooled = Pooled(vs.toArray, 1.0)

  test("EmptyAgg is the identity of merge") {
    val p = pooled(1, 2)
    assert(Agg.merge(EmptyAgg, p) eq p)
    assert(Agg.merge(p, EmptyAgg) eq p)
    assert(Agg.merge(EmptyAgg, EmptyAgg) == EmptyAgg)
  }

  // Named after the removed keepalive `Marker`: a vertex that receives
  // nothing applies EmptyAgg, which must merge away from unions too.
  test("Marker merges away") {
    val u = Unioned(List(Array(1.0)))
    assert(Agg.merge(EmptyAgg, u) eq u)
    assert(Agg.merge(u, EmptyAgg) eq u)
  }

  test("Pooled merge sums element-wise and adds weights") {
    val m = Agg.merge(Pooled(Array(1.0, 2.0), 2.0), Pooled(Array(10.0, 20.0), 3.0))
    m match {
      case Pooled(s, w) => assert(s.toSeq == Seq(11.0, 22.0) && w == 5.0)
      case other        => fail(s"unexpected $other")
    }
  }

  test("Pooled merge rejects dimension mismatch") {
    intercept[IllegalArgumentException](Agg.merge(pooled(1), pooled(1, 2)))
  }

  test("Unioned merge concatenates multisets") {
    val a = Unioned(List(Array(1.0)))
    val b = Unioned(List(Array(2.0), Array(3.0)))
    Agg.merge(a, b) match {
      case Unioned(ms) => assert(ms.map(_(0)) == List(1.0, 2.0, 3.0))
      case other       => fail(s"unexpected $other")
    }
  }

  test("mixing Pooled and Unioned is an error") {
    intercept[IllegalStateException](Agg.merge(pooled(1), Unioned(List(Array(1.0)))))
  }

  // Named after the removed `poolOf`; now checks what partial-gather
  // exactness rests on. A receiver that
  // folds singleton messages one at a time gets the same pool as one that
  // merges the combiners' per-partition pre-folds.
  test("poolOf folds a union to the same pool") {
    val rng = new java.util.Random(5)
    (0 until 50).foreach { _ =>
      val msgs = Seq.fill(1 + rng.nextInt(12))(
        Pooled(Array.fill(2)(rng.nextInt(100).toDouble - 50), 1 + rng.nextInt(4).toDouble): Agg)
      val receiver = msgs.foldLeft(EmptyAgg: Agg)((acc, m) => Agg.merge(m, acc)).asInstanceOf[Pooled]
      val parts = msgs.groupBy(_ => rng.nextInt(4)).values
      val combined = parts.map(_.reduce(Agg.merge)).reduce(Agg.merge).asInstanceOf[Pooled]
      assert(receiver.sum.toSeq == combined.sum.toSeq && receiver.wsum == combined.wsum)
    }
  }

  test("merge is commutative for Pooled (up to fp equality on these values)") {
    val rng = new java.util.Random(3)
    (0 until 50).foreach { _ =>
      val a = Pooled(Array.fill(3)(rng.nextInt(10).toDouble), rng.nextInt(5).toDouble)
      val b = Pooled(Array.fill(3)(rng.nextInt(10).toDouble), rng.nextInt(5).toDouble)
      val ab = Agg.merge(a, b).asInstanceOf[Pooled]
      val ba = Agg.merge(b, a).asInstanceOf[Pooled]
      assert(ab.sum.toSeq == ba.sum.toSeq && ab.wsum == ba.wsum)
    }
  }

  test("merge is associative for Pooled (integer-valued messages)") {
    val rng = new java.util.Random(4)
    (0 until 50).foreach { _ =>
      def rand() = Pooled(Array.fill(2)(rng.nextInt(100).toDouble), rng.nextInt(9).toDouble)
      val (a, b, c) = (rand(), rand(), rand())
      val l = Agg.merge(Agg.merge(a, b), c).asInstanceOf[Pooled]
      val r = Agg.merge(a, Agg.merge(b, c)).asInstanceOf[Pooled]
      assert(l.sum.toSeq == r.sum.toSeq && l.wsum == r.wsum)
    }
  }

  test("union preserves multiset under any merge order") {
    def u(v: Double) = Unioned(List(Array(v)))
    val l = Agg.merge(Agg.merge(u(1), u(2)), u(3)).asInstanceOf[Unioned]
    val r = Agg.merge(u(1), Agg.merge(u(2), u(3))).asInstanceOf[Unioned]
    assert(l.msgs.map(_(0)).sorted == r.msgs.map(_(0)).sorted)
  }
}
