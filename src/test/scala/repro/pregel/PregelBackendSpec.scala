package repro.pregel

import repro.{BackendTestUtil, GraphFixture, SparkSpec}
import repro.BackendTestUtil.{assertMatchesLocal, fixture}
import repro.batch.{BatchBackend, ShadowNodes}
import repro.batch.BatchBackend.BatchOpts
import repro.core.{Agg, GasLayer, GnnModel, LayerSig, Models}
import repro.graphgen.{GraphGen, GraphSpec}
import repro.metrics.SparkCost

/** Delegates to `inner` and counts the vertices whose payload it computes. */
private final case class CountingPayload(inner: GasLayer, calls: org.apache.spark.util.LongAccumulator)
    extends GasLayer {
  def inDim: Int = inner.inDim
  def outDim: Int = inner.outDim
  def partialGather: Boolean = inner.partialGather
  def scatterPayload(h: Array[Double]): Array[Double] = { calls.add(1); inner.scatterPayload(h) }
  def applyEdge(payload: Array[Double], w: Double): Array[Double] = inner.applyEdge(payload, w)
  def initAgg(msg: Array[Double], w: Double): Agg = inner.initAgg(msg, w)
  def applyNode(h: Array[Double], agg: Agg): Array[Double] = inner.applyNode(h, agg)
  def signature: LayerSig = inner.signature
}

class PregelBackendSpec extends SparkSpec {

  private lazy val fix = fixture(spark, GraphSpec(nNodes = 200, avgOutDeg = 4, featDim = 6,
    nClasses = 3, homophily = 0.3, seed = 55L, wMin = 0.5, wMax = 1.5))
  private lazy val sage2 = Models.sage(Seq(6, 4, 3))
  private lazy val gat2 = Models.gat(Seq(6, 4, 3), heads = 2)
  private lazy val inSkew = fixture(spark, GraphGen.powerLaw(400, avgDeg = 6, inSkew = true, seed = 68L))

  /** Pregel, whose combiner always runs, against MR with the combiner off:
    * the same messages merged in different places give `h` within 1e-9 and
    * the same predictions.
    */
  private def assertAgreesWithMrNoCombiner(fz: GraphFixture, m: GnnModel): Unit = {
    val a = BackendTestUtil.collectH(PregelBackend.run(spark, fz.nodes, fz.edges, m))
    val b = BackendTestUtil.collectH(
      BatchBackend.run(spark, fz.nodes, fz.edges, m, BatchOpts(partialGather = false)))
    assert(a.keySet == b.keySet)
    a.foreach { case (id, h) =>
      val diff = h.zip(b(id)).map { case (x, y) => math.abs(x - y) }.max
      assert(diff < 1e-9, s"vertex $id differs by $diff")
      assert(m.predict(h) == m.predict(b(id)), s"vertex $id changes class")
    }
  }

  // The next two names are those of the removed native `graph.pregel` mode;
  // the one path now checks them on the power-law graphs that mode was
  // built for: hub senders for SAGE, hub receivers for GAT.
  test("SAGE 2-layer: native Pregel matches the local reference") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 6, inSkew = false, seed = 67L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(PregelBackend.run(spark, fz.nodes, fz.edges, m), fz.local, fz.reference(m))
  }

  test("SAGE 2-layer: aggregateMessages loop matches the local reference") {
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, sage2), fix.local, fix.reference(sage2))
  }

  test("GAT 2-layer: native Pregel matches (union aggregation, attention in apply_node)") {
    val m = Models.gat(Seq(16, 8, 4), heads = 2)
    assertMatchesLocal(PregelBackend.run(spark, inSkew.nodes, inSkew.edges, m),
      inSkew.local, inSkew.reference(m), tol = 1e-7)
  }

  test("GAT 2-layer: loop mode matches") {
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, gat2),
      fix.local, fix.reference(gat2), tol = 1e-7)
  }

  // Named, like "native and loop modes…" below, after the removed Pregel
  // partial-gather switch: only MR can skip the combiner now.
  test("partial-gather off (messages travel unioned) is exact for SAGE") {
    assertAgreesWithMrNoCombiner(inSkew, Models.sage(Seq(16, 8, 4)))
  }

  // The payload is computed once per vertex and layer, never per edge, and
  // gives the same results as the reference's per-vertex payloads.
  test("precomputePayload off recomputes per-edge with identical results") {
    val calls = spark.sparkContext.longAccumulator("scatterPayload calls")
    val counted = GnnModel(gat2.layers.map(CountingPayload(_, calls)))
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, counted),
      fix.local, fix.reference(gat2), tol = 1e-7)
    assert(calls.value == gat2.layers.size.toLong * fix.local.n)
  }

  test("native and loop modes agree bit-for-bit on argmax predictions") {
    assertAgreesWithMrNoCombiner(inSkew, Models.gat(Seq(16, 8, 4), heads = 2))
  }

  test("1-layer and 3-layer model depths both work") {
    val m1 = Models.sage(Seq(6, 3))
    val m3 = Models.sage(Seq(6, 5, 4, 3))
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, m1),
      fix.local, fix.reference(m1))
    assertMatchesLocal(PregelBackend.run(spark, fix.nodes, fix.edges, m3),
      fix.local, fix.reference(m3))
  }

  test("zero-in-degree vertices advance every superstep (the marker-edge fix)") {
    import spark.implicits._
    // star: 0 -> 1..4; vertices 0..4, vertex 0 never receives messages
    val nodes = (0L to 4L).map(i => (i, Seq.tabulate(3)(j => (i + j + 1).toDouble), 0, Seq(0)))
      .toDF("id", "feat", "label", "labels")
    val edges = (1L to 4L).map(d => (0L, d, 1.0)).toDF("src", "dst", "w")
    val m = Models.sage(Seq(3, 3, 2))
    val local = GraphGen.toLocal(nodes, edges, 2)
    val ref = repro.core.LocalInference.forward(local, m)
    assertMatchesLocal(PregelBackend.run(spark, nodes, edges, m), local, ref)
  }

  test("power-law in-degree graph (hub receivers) stays exact") {
    val fz = fixture(spark, GraphGen.powerLaw(500, avgDeg = 6, inSkew = true, seed = 66L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(PregelBackend.run(spark, fz.nodes, fz.edges, m), fz.local, fz.reference(m), tol = 1e-7)
  }

  test("each layer is one superstep: one more Spark job per layer, no init superstep") {
    // `run` is eager up to its lazy output, so its jobs are its supersteps
    def jobs(m: GnnModel): Long =
      SparkCost.measure(spark, "pregel-jobs")(PregelBackend.run(spark, fix.nodes, fix.edges, m))._2.jobs
    val (one, two) = (jobs(Models.sage(Seq(6, 3))), jobs(sage2))
    assert(two - one == 1)
    assert(one == 1 && two == 2)
  }

  test("edges with a missing src or dst are dropped by both backends") {
    import spark.implicits._
    val ids = fix.local.ids
    val ghost = ids.max + 1
    // the ghost sender is a hub, so broadcast must drop its edges too
    val ghostOut = 40
    val bad = (ids.take(ghostOut).toSeq.map(d => (ghost, d, 1.0)) :+ ((ids(1), ghost + 1, 1.0)))
      .toDF("src", "dst", "w")
    val edges = fix.edges.select("src", "dst", "w").union(bad)
    assert(ghostOut > ShadowNodes.threshold(edges.count(), 8), "the ghost is no hub — weak test")
    Seq(sage2 -> 1e-8, gat2 -> 1e-7).foreach { case (m, tol) =>
      val pregel = PregelBackend.run(spark, fix.nodes, edges, m)
      val mr = BatchBackend.run(spark, fix.nodes, edges, m)
      val bcast = BatchBackend.run(spark, fix.nodes, edges, m, BatchOpts(broadcastHubs = true, numWorkers = 8))
      Seq(pregel, mr, bcast).foreach(assertMatchesLocal(_, fix.local, fix.reference(m), tol))
      val (a, b) = (BackendTestUtil.collectH(pregel), BackendTestUtil.collectH(mr))
      a.foreach { case (id, h) =>
        assert(h.zip(b(id)).forall { case (x, y) => math.abs(x - y) < tol }, s"backends differ at $id")
      }
    }
  }
}
