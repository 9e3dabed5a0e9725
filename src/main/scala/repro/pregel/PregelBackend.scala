package repro.pregel

import org.apache.spark.graphx.{Edge, Graph, TripletFields}
import org.apache.spark.graphx.impl.GraphImpl
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._

/** InferTurbo on a Pregel-like graph-processing system — GraphX.
  *
  * Graph partition: GraphX hash-partitions vertices (the paper's `mod N`)
  * and each vertex keeps its state plus out-edges; one GNN layer completes
  * per superstep. Each message is `initAgg(applyEdge(payload, w), w)`, and
  * GraphX always merges messages inside each edge partition (`mergeMsg`),
  * which is the paper's partial-gather: for associative layers messages are
  * reduced as they are merged; for GAT they are unioned and reduced in
  * `apply_node`.
  *
  * A superstep is one `aggregateMessages` round over a fixed edge table,
  * then a `leftJoin` of the messages onto the embeddings. The embeddings stay
  * in the vertex table; each vertex's payload is computed once
  * (`scatterPayload`), and only it is shipped, to the edge partitions
  * holding that vertex's out-edges (`TripletFields.Src`). The `leftJoin`
  * visits every vertex, and one that received nothing applies [[EmptyAgg]],
  * so zero-in-degree vertices advance every layer too (the paper's systems
  * run k supersteps over all vertices).
  *
  * An edge whose `src` or `dst` is missing from the node table is dropped, as
  * the MR backend does: GraphX gives such a phantom vertex a null state, a
  * null payload sends nothing, and null states never reach the output.
  */
object PregelBackend {

  /** GraphX calls `mergeMsg(accumulated, incoming)`. The incoming message is
    * passed to [[Agg.merge]] as the left operand, so a [[Unioned]] aggregate
    * grows in O(1) per message.
    */
  private val mergeMsg: (Agg, Agg) => Agg = (acc, msg) => Agg.merge(msg, acc)

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel): DataFrame = {
    val verts = nodes.select("id", "feat").rdd
      .map(r => (r.getLong(0), r.getSeq[Double](1).toArray))
    val edgeRdd = edges.select("src", "dst", "w").rdd
      .map(r => Edge(r.getLong(0), r.getLong(1), r.getDouble(2)))

    val graph = Graph(verts, edgeRdd)
    var h = graph.vertices
    model.layers.foreach { layer =>
      val payloads = h.mapValues(x => if (x == null) null else layer.scatterPayload(x)).cache()
      val msgs = GraphImpl.fromExistingRDDs(payloads, graph.edges).aggregateMessages[Agg](
        ctx => if (ctx.srcAttr != null)
          ctx.sendToDst(layer.initAgg(layer.applyEdge(ctx.srcAttr, ctx.attr), ctx.attr)),
        mergeMsg, TripletFields.Src)
      val next = h.leftJoin(msgs)((_, x, agg) =>
        if (x == null) null else layer.applyNode(x, agg.getOrElse(EmptyAgg))).cache()
      next.count()
      payloads.unpersist(blocking = false)
      h.unpersist(blocking = false)
      h = next
    }
    graph.edges.unpersist(blocking = false)

    import spark.implicits._
    h.filter(_._2 != null).map { case (id, x) => (id, x.toSeq) }.toDF("id", "h")
  }
}
