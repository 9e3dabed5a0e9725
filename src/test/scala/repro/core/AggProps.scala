package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck laws for the aggregate algebra — the paper's rule that the
  * `aggregate` stage must be commutative and associative is what makes
  * partial-gather exact; these properties pin that down.
  */
object AggProps extends Properties("Agg") {

  private val genPooled: Gen[Pooled] = for {
    a <- Gen.choose(-50, 50)
    b <- Gen.choose(-50, 50)
    w <- Gen.choose(0, 9)
  } yield Pooled(Array(a.toDouble, b.toDouble), w.toDouble)

  private val genUnion: Gen[Unioned] = for {
    n <- Gen.choose(1, 4)
    vs <- Gen.listOfN(n, Gen.choose(-50, 50))
  } yield Unioned(vs.map(v => Array(v.toDouble)))

  private def eqPooled(x: Agg, y: Agg): Boolean = (x, y) match {
    case (Pooled(s1, w1), Pooled(s2, w2)) => s1.toSeq == s2.toSeq && w1 == w2
    case _ => false
  }

  property("pooled merge commutes") = Prop.forAll(genPooled, genPooled) { (a, b) =>
    eqPooled(Agg.merge(a, b), Agg.merge(b, a))
  }

  property("pooled merge associates") = Prop.forAll(genPooled, genPooled, genPooled) { (a, b, c) =>
    eqPooled(Agg.merge(Agg.merge(a, b), c), Agg.merge(a, Agg.merge(b, c)))
  }

  property("empty is identity") = Prop.forAll(genPooled) { a =>
    eqPooled(Agg.merge(EmptyAgg, a), a) && eqPooled(Agg.merge(a, EmptyAgg), a)
  }

  // Named after the removed keepalive `Marker`: EmptyAgg is absorbed by unions too.
  property("marker is absorbed") = Prop.forAll(genUnion) { a =>
    (Agg.merge(EmptyAgg, a) eq a) && (Agg.merge(a, EmptyAgg) eq a)
  }

  property("union merge preserves the multiset") = Prop.forAll(genUnion, genUnion) { (a, b) =>
    val m = Agg.merge(a, b).asInstanceOf[Unioned]
    m.msgs.map(_(0)).sorted == (a.msgs ++ b.msgs).map(_(0)).sorted
  }

  // Named after the removed `poolOf`; now checks partial-gather exactness:
  // folding singleton messages one at a time, as a
  // receiver does, equals merging per-partition pre-folds, as combiners do,
  // for any assignment of messages to partitions.
  private val genSplit: Gen[List[(Pooled, Int)]] =
    Gen.nonEmptyListOf(Gen.zip(genPooled, Gen.choose(0, 3)))

  property("poolOf(union of singletons) equals merged pools") = Prop.forAll(genSplit) { split =>
    val receiver = split.foldLeft(EmptyAgg: Agg) { case (acc, (m, _)) => Agg.merge(m, acc) }
    val preFolds = split.groupBy(_._2).values.map(_.map(_._1: Agg).reduce(Agg.merge))
    eqPooled(receiver, preFolds.reduce(Agg.merge))
  }
}
