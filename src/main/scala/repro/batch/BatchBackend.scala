package repro.batch

import scala.jdk.CollectionConverters._
import org.apache.spark.{HashPartitioner, Partitioner, SparkContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** InferTurbo on a batch-processing system (the paper's MapReduce/Spark
  * backend).
  *
  * The state of a vertex is one [[BatchBackend.VertexRec]]: its embedding
  * plus its out-edges, built once per run from the edge table. Each GNN
  * layer is one stateless MapReduce round with exactly one shuffle:
  *   1. map: every vertex computes its payload once (`scatter_nbrs`
  *      content) and emits its own record to its id plus one message
  *      `initAgg(applyEdge(payload, w), w)` per out-edge;
  *   2. combine: with **partial-gather** (the backend option and the
  *      layer's annotation both on) a per-partition hash combiner merges the
  *      messages of each destination through [[Agg.merge]] before the
  *      shuffle; without it every edge message crosses the shuffle and the
  *      whole reduce runs at the receiver (the paper's no-combiner baseline);
  *   3. shuffle + reduce: one hash partitioning by vertex id brings a
  *      vertex's record and its messages together; the reducer gathers them
  *      in a per-partition hash map and runs `apply_node`. Messages whose
  *      key has no vertex record (edges to a missing vertex) are dropped;
  *   4. the next state, adjacency included, is persisted to external storage
  *      (parquet spill) before the next round, mirroring the paper's MR
  *      dataflow where no state lives in memory across rounds; without a
  *      spill dir it is local-checkpointed so rounds stay independent.
  *
  * A reducer holds the records and gathered messages of one partition in
  * memory. The reducer count is the larger of the cluster's default
  * parallelism and the vertex table's partition count.
  *
  * Strategies:
  *  - `partialGather`: combiner on/off (exact either way, same messages);
  *  - `broadcastHubs`: the paper's broadcast strategy — out-edges of
  *    vertices with out-degree > threshold are stored at their receivers as
  *    `(hub id, weight)` pairs. Each round the hub payloads are collected
  *    and shipped once per worker as a Spark broadcast variable, and the
  *    reducer looks them up (the paper's identifier/lookup mechanism), so
  *    hub messages never cross the shuffle. A hub missing from the node
  *    table has no payload, and its edges are dropped;
  *  - `shadowNodes`: the [[ShadowNodes]] mirror split, applied as
  *    preprocessing and undone on output.
  */
object BatchBackend {

  final case class BatchOpts(
      partialGather: Boolean = true,
      broadcastHubs: Boolean = false,
      shadowNodes: Boolean = false,
      numWorkers: Int = 64,
      spillDir: Option[String] = None)

  /** A vertex's state between rounds: embedding `h`, out-edges `dst`/`w`,
    * and the in-edges from broadcast hubs `hubSrc`/`hubW`.
    */
  final case class VertexRec(id: Long, h: Array[Double], dst: Array[Long], w: Array[Double],
                             hubSrc: Array[Long], hubW: Array[Double])

  /** Full-graph inference; returns DataFrame(id LONG, h ARRAY&lt;DOUBLE&gt;). */
  def run(spark: SparkSession, nodes: DataFrame, edges: DataFrame, model: GnnModel,
          opts: BatchOpts = BatchOpts()): DataFrame = {
    val sc = spark.sparkContext
    val needThr = opts.broadcastHubs || opts.shadowNodes
    val thr = if (needThr) ShadowNodes.threshold(edges.count(), opts.numWorkers) else 0L

    val (n0, e0) =
      if (opts.shadowNodes) {
        val s = ShadowNodes.transform(spark, nodes, edges, thr)
        (s.nodes, s.edges)
      } else (nodes, edges)

    val hubs: Set[Long] =
      if (opts.broadcastHubs)
        e0.groupBy("src").count().filter(col("count") > thr).select("src")
          .collect().map(_.getLong(0)).toSet
      else Set.empty

    var state = vertexTable(spark, n0, e0, hubs)
    val parts = new HashPartitioner(math.max(sc.defaultParallelism, state.getNumPartitions))
    model.layers.zipWithIndex.foreach { case (layer, i) =>
      val pg = opts.partialGather && layer.partialGather
      state = materialize(spark, runRound(sc, state, layer, i, pg, hubs, parts), opts, i)
    }
    import spark.implicits._
    val out = state.map(v => (v.id, v.h)).toDF("id", "h")
    // drop shadow mirrors: only ids present in the original node table
    if (opts.shadowNodes) out.join(nodes.select("id"), Seq("id")) else out
  }

  /** Vertex records: node features, left-joined with the out-adjacency of
    * non-hub senders and the hub in-adjacency of each receiver.
    */
  private def vertexTable(spark: SparkSession, nodes: DataFrame, edges: DataFrame,
                          hubs: Set[Long]): RDD[VertexRec] = {
    import spark.implicits._
    def adjacency(es: DataFrame, key: String, other: String, name: String) =
      es.groupBy(col(key).as("id")).agg(collect_list(struct(col(other), col("w"))).as(name))
    def orEmpty[T: scala.reflect.runtime.universe.TypeTag](c: String, empty: Array[T]) =
      coalesce(col(c), typedLit(empty))
    val isHub = col("src").isInCollection(hubs)
    val withOut = nodes.select(col("id"), col("feat").as("h"))
      .join(adjacency(if (hubs.isEmpty) edges else edges.filter(!isHub), "src", "dst", "out"),
        Seq("id"), "left_outer")
    val (table, hubSrc, hubW) =
      if (hubs.isEmpty) (withOut, typedLit(Array.empty[Long]), typedLit(Array.empty[Double]))
      else (withOut.join(adjacency(edges.filter(isHub), "dst", "src", "hub"), Seq("id"), "left_outer"),
        orEmpty("hub.src", Array.empty[Long]), orEmpty("hub.w", Array.empty[Double]))
    table.select(col("id"), col("h"),
      orEmpty("out.dst", Array.empty[Long]).as("dst"), orEmpty("out.w", Array.empty[Double]).as("w"),
      hubSrc.as("hubSrc"), hubW.as("hubW"))
      .as[VertexRec].rdd
  }

  /** Runs `body` under a call site that names the Spark stages it creates,
    * then restores the caller's.
    */
  private def named[T](sc: SparkContext, name: String)(body: => T): T = {
    val prev = sc.getLocalProperty("callSite.short")
    sc.setCallSite(name)
    try body
    finally sc.setLocalProperty("callSite.short", prev)
  }

  /** One GNN layer as one MapReduce round; see the object doc. */
  private def runRound(sc: SparkContext, state: RDD[VertexRec], layer: GasLayer, i: Int, pg: Boolean,
                       hubs: Set[Long], parts: Partitioner): RDD[VertexRec] = {
    val hubPayloads: Option[Broadcast[Map[Long, Array[Double]]]] =
      if (hubs.isEmpty) None
      else Some(sc.broadcast(named(sc, s"mr layer $i hub payloads") {
        state.filter(v => hubs.contains(v.id)).map(v => v.id -> layer.scatterPayload(v.h))
          .collect().toMap
      }))

    val emitted = named(sc, s"mr layer $i map") {
      state.mapPartitions { it =>
        val out = it.flatMap { v =>
          val p = layer.scatterPayload(v.h)
          Iterator.single(v.id -> (v: AnyRef)) ++
            v.dst.indices.iterator.map(j => v.dst(j) -> (layer.initAgg(layer.applyEdge(p, v.w(j)), v.w(j)): AnyRef))
        }
        if (pg) combine(out) else out
      }
    }

    emitted.partitionBy(parts).mapPartitions { it =>
      val recs = new java.util.HashMap[Long, VertexRec]()
      val aggs = new java.util.HashMap[Long, Agg]()
      it.foreach {
        case (k, v: VertexRec) => recs.put(k, v)
        case (k, a: Agg)       => mergeInto(aggs, k, a)
      }
      val lookup = hubPayloads.map(_.value)
      recs.values.iterator.asScala.map { v =>
        var agg = aggs.getOrDefault(v.id, EmptyAgg)
        lookup.foreach { payloads =>
          var j = 0
          while (j < v.hubSrc.length) {
            payloads.get(v.hubSrc(j)).foreach { p =>
              agg = Agg.merge(layer.initAgg(layer.applyEdge(p, v.hubW(j)), v.hubW(j)), agg)
            }
            j += 1
          }
        }
        v.copy(h = layer.applyNode(v.h, agg))
      }
    }
  }

  /** Folds one message into a destination's aggregate. The new message is
    * the left operand, so a [[Unioned]] aggregate grows in O(1).
    */
  private def mergeInto(aggs: java.util.HashMap[Long, Agg], k: Long, a: Agg): Unit =
    aggs.merge(k, a, (acc: Agg, m: Agg) => Agg.merge(m, acc))

  /** Map-side hash combiner: vertex records pass through as they come,
    * messages are merged per destination and emitted once the partition's
    * input is exhausted.
    */
  private def combine(it: Iterator[(Long, AnyRef)]): Iterator[(Long, AnyRef)] = {
    val aggs = new java.util.HashMap[Long, Agg]()
    val recs = it.filter {
      case (k, a: Agg) => mergeInto(aggs, k, a); false
      case _           => true
    }
    // `++` takes its operand by name: the map is read only after `recs` ends
    recs ++ aggs.entrySet.iterator.asScala.map(e => e.getKey -> (e.getValue: AnyRef))
  }

  /** Between rounds the MR backend keeps no state in memory: spill the
    * vertex table to parquet and read it back (external-storage dataflow).
    * Without a spill dir, localCheckpoint still cuts the lineage so rounds
    * stay independent.
    */
  private def materialize(spark: SparkSession, next: RDD[VertexRec], opts: BatchOpts,
                          round: Int): RDD[VertexRec] = {
    import spark.implicits._
    named(spark.sparkContext, s"mr layer $round reduce, spill") {
      opts.spillDir match {
        case Some(dir) =>
          val path = s"$dir/round_$round"
          val ds = next.toDS()
          ds.write.mode("overwrite").parquet(path)
          // the schema is known: reading it back needs no footer-scanning job
          spark.read.schema(ds.schema).parquet(path).as[VertexRec].rdd
        case None =>
          next.localCheckpoint()
          next.count()
          next
      }
    }
  }
}
