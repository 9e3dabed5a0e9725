package repro.pregel

import org.apache.spark.graphx.{Edge, EdgeTriplet, Graph, Pregel, VertexId}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** InferTurbo on a Pregel-like graph-processing system — GraphX.
  *
  * Graph partition: GraphX hash-partitions vertices (the paper's `mod N`)
  * and each vertex keeps its state plus out-edges; one GNN layer completes
  * per superstep. The combiner (`mergeMsg`) implements the paper's
  * partial-gather: for associative layers messages are reduced as they are
  * merged; for GAT they are unioned and reduced in `apply_node`.
  *
  * Two execution modes:
  *  - `useNativePregel = true`: the GraphX `Pregel` operator, one superstep
  *    per layer. GraphX only runs `vprog` on vertices that received a
  *    message, which would freeze zero-in-degree vertices at layer 0; we add
  *    one self-*marker* edge per vertex carrying a [[Marker]] message that
  *    merges away, so every vertex advances every superstep (the paper's
  *    systems always run k supersteps over all vertices).
  *  - `useNativePregel = false`: an explicit aggregateMessages/joinVertices
  *    loop — the same dataflow, easier to instrument.
  *
  * `precomputePayload` is the broadcast-strategy analog on this backend: the
  * per-vertex payload is computed once in the vertex attribute (and shipped
  * once per edge partition by GraphX's routing) instead of being recomputed
  * for every out-edge.
  */
object PregelBackend {

  final case class PregelOpts(
      useNativePregel: Boolean = true,
      partialGather: Boolean = true,
      precomputePayload: Boolean = true)

  /** Marker weight for keepalive self-edges (never a real edge weight). */
  private val MarkerW = Double.NaN

  /** GraphX calls `mergeMsg(accumulated, incoming)`. The incoming message is
    * passed to [[Agg.merge]] as the left operand, so a [[Unioned]] aggregate
    * grows in O(1) per message.
    */
  private val mergeMsg: (Agg, Agg) => Agg = (acc, msg) => Agg.merge(msg, acc)

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: PregelOpts = PregelOpts()): DataFrame = {
    val verts = nodes.select("id", "feat").rdd
      .map(r => (r.getLong(0), r.getSeq[Double](1).toArray))
    val edgeRdd = edges.select("src", "dst", "w").rdd
      .map(r => Edge(r.getLong(0), r.getLong(1), r.getDouble(2)))

    val resultVerts =
      if (opts.useNativePregel) runNative(verts, edgeRdd, model, opts)
      else runLoop(verts, edgeRdd, model, opts)

    import spark.implicits._
    resultVerts.map { case (id, h) => (id, h.toSeq) }.toDF("id", "h")
  }

  private def runLoop(verts: org.apache.spark.rdd.RDD[(VertexId, Array[Double])],
                      edgeRdd: org.apache.spark.rdd.RDD[Edge[Double]],
                      model: GnnModel, opts: PregelOpts) = {
    var g: Graph[Array[Double], Double] = Graph(verts, edgeRdd).cache()
    model.layers.foreach { layer =>
      val pg = opts.partialGather && layer.partialGather
      val staged: Graph[(Array[Double], Array[Double]), Double] =
        if (opts.precomputePayload) g.mapVertices((_, h) => (h, layer.scatterPayload(h)))
        else g.mapVertices((_, h) => (h, null: Array[Double]))
      val msgs = staged.aggregateMessages[Agg](
        ctx => {
          val payload =
            if (opts.precomputePayload) ctx.srcAttr._2
            else layer.scatterPayload(ctx.srcAttr._1)
          val m = layer.applyEdge(payload, ctx.attr)
          ctx.sendToDst(if (pg) layer.initAgg(m, ctx.attr) else Unioned(List((m, ctx.attr)))) },
        mergeMsg)
      val ng = g.outerJoinVertices(msgs)((_, h, agg) =>
        layer.applyNode(h, agg.getOrElse(EmptyAgg))).cache()
      ng.vertices.count()
      g.unpersist(blocking = false)
      g = ng
    }
    g.vertices
  }

  private def runNative(verts: org.apache.spark.rdd.RDD[(VertexId, Array[Double])],
                        edgeRdd: org.apache.spark.rdd.RDD[Edge[Double]],
                        model: GnnModel, opts: PregelOpts) = {
    val k = model.layers.size
    val layers = model.layers.toIndexedSeq
    val markers = verts.map { case (id, _) => Edge(id, id, MarkerW) }
    // step -1 = pre-init; vprog at superstep 0 initializes (raw feats -> h0)
    val init: Graph[(Int, Array[Double]), Double] =
      Graph(verts.map { case (id, f) => (id, (-1, f)) }, edgeRdd.union(markers)).cache()

    def vprog(id: VertexId, attr: (Int, Array[Double]), msg: Agg): (Int, Array[Double]) = {
      val (step, h) = attr
      if (step < 0) (0, h) // initialization superstep: raw features are h^0
      else {
        val real = msg match { case Marker => EmptyAgg; case other => other }
        (step + 1, layers(step).applyNode(h, real))
      }
    }

    def sendMsg(t: EdgeTriplet[(Int, Array[Double]), Double]): Iterator[(VertexId, Agg)] = {
      val step = t.srcAttr._1
      if (step >= k) Iterator.empty
      else if (java.lang.Double.isNaN(t.attr)) Iterator((t.dstId, Marker))
      else {
        val layer = layers(step)
        val pg = opts.partialGather && layer.partialGather
        val m = layer.applyEdge(layer.scatterPayload(t.srcAttr._2), t.attr)
        Iterator((t.dstId, if (pg) layer.initAgg(m, t.attr) else Unioned(List((m, t.attr)))))
      }
    }

    val done = Pregel(init, initialMsg = Marker: Agg, maxIterations = k)(vprog, sendMsg, mergeMsg)
    done.vertices.mapValues { case (step, h) =>
      require(step == k, s"vertex halted at superstep $step of $k")
      h
    }
  }
}
