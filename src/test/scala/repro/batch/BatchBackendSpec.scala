package repro.batch

import repro.{GraphFixture, SparkSpec}
import repro.BackendTestUtil.{assertMatchesLocal, fixture}
import repro.batch.BatchBackend.BatchOpts
import repro.core.{GnnModel, Models}
import repro.graphgen.{GraphGen, GraphSpec}
import repro.metrics.SparkCost

class BatchBackendSpec extends SparkSpec {

  private lazy val fix = fixture(spark, GraphSpec(nNodes = 200, avgOutDeg = 4, featDim = 6,
    nClasses = 3, homophily = 0.3, seed = 56L, wMin = 0.5, wMax = 1.5))
  private lazy val sage2 = Models.sage(Seq(6, 4, 3))
  private lazy val gat2 = Models.gat(Seq(6, 4, 3), heads = 2)

  test("SAGE 2-layer with partial-gather (UDAF combiner) matches the reference") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(partialGather = true)),
      fix.local, fix.reference(sage2), tol = 1e-7)
  }

  test("SAGE with partial-gather disabled (no-combiner groupByKey union) matches the reference") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(partialGather = false)),
      fix.local, fix.reference(sage2), tol = 1e-7)
  }

  test("GAT 2-layer (non-associative: always unioned) matches the reference") {
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, gat2, BatchOpts()),
      fix.local, fix.reference(gat2), tol = 1e-7)
  }

  test("broadcast strategy is exact (hub payloads via broadcast join)") {
    // small worker count makes the threshold tiny so hubs exist
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2,
        BatchOpts(broadcastHubs = true, numWorkers = 8)),
      fix.local, fix.reference(sage2), tol = 1e-7)
  }

  test("shadow-nodes strategy is exact on an out-degree power-law graph") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = false, seed = 67L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(shadowNodes = true, numWorkers = 8)),
      fz.local, fz.reference(m), tol = 1e-7)
  }

  test("shadow-nodes + GAT is exact (mirrors replicate attention inputs)") {
    val fz = fixture(spark, GraphGen.powerLaw(300, avgDeg = 8, inSkew = false, seed = 68L))
    val m = Models.gat(Seq(16, 8, 4), heads = 2)
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(shadowNodes = true, numWorkers = 8)),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("parquet spill between rounds (external-storage dataflow) is exact") {
    val dir = java.nio.file.Files.createTempDirectory("bb-spill").toString
    assertMatchesLocal(
      BatchBackend.run(spark, fix.nodes, fix.edges, sage2, BatchOpts(spillDir = Some(dir))),
      fix.local, fix.reference(sage2), tol = 1e-7)
    // one spill per layer
    assert(new java.io.File(dir).listFiles().count(_.getName.startsWith("round_")) == 2)
  }

  test("all strategies combined remain exact") {
    val fz = fixture(spark, GraphGen.powerLaw(300, avgDeg = 8, inSkew = false, seed = 69L))
    val m = Models.sage(Seq(16, 8, 4))
    val dir = java.nio.file.Files.createTempDirectory("bb-all").toString
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m,
        BatchOpts(partialGather = true, broadcastHubs = true, shadowNodes = true,
          numWorkers = 8, spillDir = Some(dir))),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("1-layer and 3-layer model depths both work") {
    val m1 = Models.sage(Seq(6, 3))
    val m3 = Models.sage(Seq(6, 5, 4, 3))
    assertMatchesLocal(BatchBackend.run(spark, fix.nodes, fix.edges, m1),
      fix.local, fix.reference(m1), tol = 1e-7)
    assertMatchesLocal(BatchBackend.run(spark, fix.nodes, fix.edges, m3),
      fix.local, fix.reference(m3), tol = 1e-7)
  }

  test("MR and Pregel backends agree with each other") {
    val a = repro.BackendTestUtil.collectH(
      BatchBackend.run(spark, fix.nodes, fix.edges, gat2, BatchOpts()))
    val b = repro.BackendTestUtil.collectH(
      repro.pregel.PregelBackend.run(spark, fix.nodes, fix.edges, gat2))
    a.foreach { case (id, h) =>
      h.zip(b(id)).foreach { case (x, y) => assert(math.abs(x - y) < 1e-7) }
    }
  }

  test("the node table's partition count changes only the combiner's summation order") {
    // the combiner sums in partition order, so runs agree only up to float reassociation
    val tol = 1e-8
    val runs = Seq(1, 7).map { n =>
      val out = BatchBackend.run(spark, fix.nodes.repartition(n), fix.edges, sage2, BatchOpts(partialGather = true))
      assertMatchesLocal(out, fix.local, fix.reference(sage2), tol)
      repro.BackendTestUtil.collectH(out)
    }
    runs(0).foreach { case (id, h) =>
      h.zip(runs(1)(id)).foreach { case (x, y) => assert(math.abs(x - y) < tol, s"vertex $id") }
    }
  }

  test("power-law in-degree graph with partial-gather stays exact") {
    val fz = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = true, seed = 70L))
    val m = Models.sage(Seq(16, 8, 4))
    assertMatchesLocal(
      BatchBackend.run(spark, fz.nodes, fz.edges, m, BatchOpts(partialGather = true)),
      fz.local, fz.reference(m), tol = 1e-6)
  }

  test("each layer is one shuffle: |V| + |E| records, minus hub out-edges under broadcast") {
    def records(fz: GraphFixture, m: GnnModel, opts: BatchOpts): Long =
      SparkCost.measure(spark, "bb-records") {
        BatchBackend.run(spark, fz.nodes, fz.edges, m, opts).count()
      }._2.shuffleWriteRecords
    // a second layer adds one round and nothing else: the adjacency build
    // and the output cancel in the difference
    def perLayer(fz: GraphFixture, opts: BatchOpts): Long =
      records(fz, Models.sage(Seq(16, 8, 4)), opts) - records(fz, Models.sage(Seq(16, 4)), opts)

    val out = fixture(spark, GraphGen.powerLaw(300, avgDeg = 8, inSkew = false, seed = 69L))
    val (v, e) = (out.local.n.toLong, out.local.nEdges.toLong)
    assert(perLayer(out, BatchOpts(partialGather = false)) == v + e)

    val thr = ShadowNodes.threshold(e, numWorkers = 8)
    val hubOutEdges = out.local.outDegree.filter(_ > thr).map(_.toLong).sum
    assert(hubOutEdges > 0, "fixture has no hubs — weak test")
    assert(perLayer(out, BatchOpts(partialGather = false, broadcastHubs = true, numWorkers = 8)) ==
      v + e - hubOutEdges)

    val in = fixture(spark, GraphGen.powerLaw(400, avgDeg = 8, inSkew = true, seed = 70L))
    val m = Models.sage(Seq(16, 8, 4))
    assert(records(in, m, BatchOpts(partialGather = true)) <
      records(in, m, BatchOpts(partialGather = false)))
  }
}
