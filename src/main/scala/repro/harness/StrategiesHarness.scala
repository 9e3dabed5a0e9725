package repro.harness

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.batch.{BatchBackend, ShadowNodes}
import repro.batch.BatchBackend.BatchOpts
import repro.core.Models
import repro.graphgen.GraphGen
import repro.metrics.{Cost, SparkCost}

/** Strategy studies backing the paper's Figs. 9–13 (figures are out of
  * scope; the load-balancing effect is reported as shuffle-traffic and
  * degree-balance numbers instead):
  *  - partial-gather on a power-law **in**-degree graph → shuffle records
  *    and bytes drop (paper: ~25% total IO, up to 73% for tail workers);
  *  - broadcast on a power-law **out**-degree graph → hub messages leave
  *    the shuffle entirely (paper: 42% tail-worker IO reduction). Measured
  *    with the combiner off so every remaining edge message crosses the
  *    shuffle, isolating the broadcast effect;
  *  - shadow-nodes on the same graph → max out-degree per vertex capped at
  *    the threshold (paper: 53% tail IO reduction), results unchanged.
  *
  * `numWorkers` plays the paper's cluster width in the threshold heuristic
  * (λ·|E|/workers); 200 simulated workers gives a threshold low enough for
  * a realistic hub population at this scale.
  */
object StrategiesHarness {

  final case class Config(nNodes: Long = 20000, avgDeg: Double = 15, numWorkers: Int = 200)

  /** What the studies measured: `pg*` on the in-skew graph, the rest on the
    * out-skew graph (`base` and `bc` both without the combiner).
    */
  final case class Report(cfg: Config, inEdges: Long, pgOff: Cost, pgOn: Cost,
                          outEdges: Long, threshold: Long, hubEdges: Long, base: Cost, bc: Cost,
                          hubs: Long, mirrors: Long, maxOutBefore: Long, maxOutAfterSplit: Long) {
    def pgRecordsCut: Double = cut(pgOff.shuffleWriteRecords, pgOn.shuffleWriteRecords)
    /** Cuts of broadcast shuffle bytes and records. */
    def bcCuts: Seq[Double] = Seq(cut(base.shuffleWriteBytes, bc.shuffleWriteBytes),
      cut(base.shuffleWriteRecords, bc.shuffleWriteRecords))

    def render: String =
      s"partial-gather (in-skew graph, ${cfg.nNodes} nodes, $inEdges edges):\n" +
        s"  shuffle write records: ${vs("off", "on", pgOff.shuffleWriteRecords, pgOn.shuffleWriteRecords)}\n" +
        s"  shuffle write bytes:   ${vs("off", "on", pgOff.shuffleWriteBytes, pgOn.shuffleWriteBytes)}\n" +
        s"\nout-skew graph: $outEdges edges, max out-degree $maxOutBefore, hub threshold $threshold " +
        s"(lambda=${ShadowNodes.Lambda}, simulated workers=${cfg.numWorkers}), hub edges=$hubEdges\n" +
        s"broadcast: shuffle write bytes ${vs("base", "bc", base.shuffleWriteBytes, bc.shuffleWriteBytes)}; " +
        s"records ${vs("base", "bc", base.shuffleWriteRecords, bc.shuffleWriteRecords)}\n" +
        s"shadow-nodes: hubs=$hubs mirrors=$mirrors, " +
        s"max out-degree $maxOutBefore -> $maxOutAfterSplit (threshold $threshold)\n"
  }

  /** Percentage by which `after` undercuts `before`. */
  private def cut(before: Long, after: Long): Double = 100.0 * (before - after) / math.max(1L, before)

  private def vs(a: String, b: String, before: Long, after: Long): String =
    f"$a=$before $b=$after (reduction ${cut(before, after)}%.1f%%)"

  def run(spark: SparkSession, cfg: Config = Config()): Report = {
    val model = Models.sage(Seq(16, 16))

    // --- partial-gather: in-degree power law ---
    val inSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = true)
    val inNodes = GraphGen.nodes(spark, inSpec).cache()
    val inEdges = GraphGen.edges(spark, inSpec).cache()
    inNodes.count(); inEdges.count()
    val (_, pgOff) = SparkCost.measure(spark, "strat-pg-off") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = false)).count()
    }
    val (_, pgOn) = SparkCost.measure(spark, "strat-pg-on") {
      BatchBackend.run(spark, inNodes, inEdges, model, BatchOpts(partialGather = true)).count()
    }
    val nInEdges = inEdges.count()
    inNodes.unpersist(); inEdges.unpersist()

    // --- broadcast + shadow-nodes: out-degree power law (heavier tail) ---
    val outSpec = GraphGen.powerLaw(cfg.nNodes, cfg.avgDeg, inSkew = false, alpha = 1.5)
    val outNodes = GraphGen.nodes(spark, outSpec).cache()
    val outEdges = GraphGen.edges(spark, outSpec).cache()
    outNodes.count()
    val totalE = outEdges.count()
    val thr = ShadowNodes.threshold(totalE, cfg.numWorkers)
    val maxOut = outEdges.groupBy("src").count().agg(max("count")).head().getLong(0)
    val hubEdgeCount = {
      val hubs = outEdges.groupBy("src").count().filter(col("count") > thr)
      outEdges.join(hubs.select(col("src").as("h")), outEdges("src") === col("h")).count()
    }

    val noCombiner = BatchOpts(partialGather = false, numWorkers = cfg.numWorkers)
    val (_, base) = SparkCost.measure(spark, "strat-base") {
      BatchBackend.run(spark, outNodes, outEdges, model, noCombiner).count()
    }
    val (_, bc) = SparkCost.measure(spark, "strat-bc") {
      BatchBackend.run(spark, outNodes, outEdges, model,
        noCombiner.copy(broadcastHubs = true)).count()
    }

    val shadowed = ShadowNodes.transform(spark, outNodes, outEdges, thr)
    val report = Report(cfg, nInEdges, pgOff, pgOn, totalE, thr, hubEdgeCount, base, bc,
      shadowed.nHubs, shadowed.nMirrors, maxOut, shadowed.maxOutAfterSplit)
    outNodes.unpersist(); outEdges.unpersist()
    report
  }
}
