package perfbench

import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.batch.{BatchBackend, ShadowNodes}
import repro.batch.BatchBackend.BatchOpts
import repro.core.{GnnModel, LocalInference, Models}
import repro.graphgen.{GraphGen, GraphSpec}
import repro.pregel.PregelBackend

/** Command line: `--workload W --seed N --seconds S --trace 0|1 --out DIR
  * [--cores N] [--rev REV]`. Prints one `{"info": ...}` line, then the result
  * object as the last line of standard output.
  */
final case class Args(workload: String, seed: Long, seconds: Double, traced: Boolean,
                      out: Path, cores: Int, rev: String)

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = need("workload")
    require(Main.workloads.contains(w),
      s"unknown workload $w; known: ${Main.workloads.keys.toSeq.sorted.mkString(", ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", "--trace takes 0 or 1")
    Args(w, need("seed").toLong, need("seconds").toDouble, trace == "1", Paths.get(need("out")),
      kv.get("cores").map(_.toInt).getOrElse(Runtime.getRuntime.availableProcessors),
      kv.getOrElse("rev", "unknown"))
  }
}

/** One backend configuration that runs a full-graph pass. */
final case class Pipeline(name: String, model: String, spills: Boolean,
                          run: (SparkSession, DataFrame, DataFrame, GnnModel, Option[String]) => DataFrame)

/** What one pass cost, from the clock and from the listener. */
final case class PassStats(wallS: Double, cpuS: Double, counts: Map[String, Double])

/** Full-graph inference benchmark: one generated graph per run, six backend
  * pipelines over it, every pass checked against the single-threaded
  * reference. perfbench/README.md describes the workloads and metrics.
  */
object Main {

  /** Graph presets by workload name; the seed goes to the generator only. */
  val workloads: Map[String, Long => GraphSpec] = Map(
    "mag-uniform" -> (s => GraphGen.magLite(1.0, s)),
    "powerlaw-in" -> (s => GraphGen.powerLaw(PowerLawNodes, 15, inSkew = true, seed = s)),
    "powerlaw-out" -> (s => GraphGen.powerLaw(PowerLawNodes, 15, inSkew = false, alpha = 1.5, seed = s)),
  )

  /** Sized so one run of six passes fits the benchmark's time budget. */
  val PowerLawNodes = 5000L
  /** The session settings the tests use; recorded with every result. */
  val SparkSettings = Seq("spark.sql.shuffle.partitions" -> "64", "spark.sql.autoBroadcastJoinThreshold" -> "-1")
  val Tolerance = 1e-8
  val SetupRepeats = 3
  /** The strategy study's simulated cluster width. */
  val StrategyWorkers = 200
  val SageSeed = 1L
  val GatSeed = 2L

  val pipelines: Seq[Pipeline] = {
    def mr(name: String, model: String, opts: BatchOpts) =
      Pipeline(name, model, spills = true,
        (s, n, e, m, dir) => BatchBackend.run(s, n, e, m, opts.copy(spillDir = dir)))
    def pregel(name: String, model: String) =
      Pipeline(name, model, spills = false, (s, n, e, m, _) => PregelBackend.run(s, n, e, m))
    Seq(
      mr("mr.sage", "sage", BatchOpts()),
      mr("mr.gat", "gat", BatchOpts()),
      pregel("pregel.sage", "sage"),
      pregel("pregel.gat", "gat"),
      mr("mr.bcast", "sage", BatchOpts(broadcastHubs = true, numWorkers = StrategyWorkers)),
      mr("mr.shadow", "sage", BatchOpts(shadowNodes = true, numWorkers = StrategyWorkers)),
    )
  }

  /** Counts that must repeat exactly from pass to pass of one pipeline. */
  val RepeatingCounts = Seq("shuffle_write_bytes", "shuffle_write_records", "jobs", "tasks")

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val st = Files.walk(p)
      try st.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
      finally st.close()
    }

  def treeBytes(p: Path): Long =
    if (!Files.exists(p)) 0L
    else {
      val st = Files.walk(p)
      try st.filter(f => Files.isRegularFile(f)).mapToLong(f => Files.size(f)).sum()
      finally st.close()
    }

  /** Length of the union of [start, end] intervals clipped to [lo, hi]. */
  def unionMs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = 0L
    var curB = 0L
    clipped.foreach { case (a, b) =>
      if (a > curB) { total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    total + (curB - curA)
  }

  /** Why `rows` is not the reference output, or None when it is. */
  def mismatch(rows: Array[Row], ref: java.util.HashMap[Long, Array[Double]]): Option[String] = {
    if (rows.length != ref.size) return Some(s"row count ${rows.length} != node count ${ref.size}")
    val seen = new java.util.HashSet[Long]()
    var worst = 0.0
    rows.foreach { r =>
      val id = r.getLong(0)
      if (!seen.add(id)) return Some(s"duplicate id $id")
      val want = ref.get(id)
      if (want == null) return Some(s"unknown id $id")
      val got = r.getSeq[Double](1)
      if (got == null || got.length != want.length) return Some(s"width mismatch at id $id")
      var j = 0
      while (j < want.length) { worst = math.max(worst, math.abs(got(j) - want(j))); j += 1 }
    }
    if (worst < Tolerance) None else Some(s"max abs diff $worst is not below $Tolerance")
  }

  def main(argv: Array[String]): Unit = {
    val bench = new Bench(Args.parse(argv))
    try bench.run()
    finally bench.stop()
    bench.report()
  }
}

final class Bench(a: Args) {
  import Main._

  private val spec = workloads(a.workload)(a.seed)
  private val trace = new Trace(a.traced)
  private val listener = new PassListener
  private var spark: SparkSession = _
  private var nodes: DataFrame = _
  private var edges: DataFrame = _
  private var attempted = 0L
  private var failed = 0L
  private var passNo = 0
  private val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val perLayer = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val info = mutable.LinkedHashMap.empty[String, String]

  private def startSpark(): SparkSession =
    SparkSession.builder()
      .master(s"local[${a.cores}]")
      .appName("perfbench")
      .config(SparkSettings.toMap)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", a.out.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", a.out.resolve("warehouse").toString)
      .getOrCreate()

  def run(): Unit = trace.span(s"workload ${a.workload}") {
    setup()
    val dims = Seq(spec.featDim, 32, 16)
    val models = Map("sage" -> Models.sage(dims, SageSeed), "gat" -> Models.gat(dims, heads = 2, GatSeed))
    val refs = models.map { case (name, m) => name -> reference(name, m) }
    measure(models, refs)
    if (a.traced) strategyCounts()
  }

  def stop(): Unit = if (spark != null) spark.stop()

  /** Session start plus generating and caching both tables, repeated; every
    * session but the last is stopped again. setup_s is the median.
    */
  private def setup(): Unit = {
    val runs = (1 to SetupRepeats).map { _ =>
      stop()
      val ((nodesS, edgesS), setupS, _) = trace.span("setup") {
        spark = trace.span("spark.start")(startSpark())._1
        nodes = GraphGen.nodes(spark, spec).cache()
        edges = GraphGen.edges(spark, spec).cache()
        (trace.span("graphgen.nodes")(nodes.count())._2, trace.span("graphgen.edges")(edges.count())._2)
      }
      (setupS, nodesS, edgesS)
    }
    spark.sparkContext.addSparkListener(listener)
    endToEnd("setup_s") = median(runs.map(_._1)) -> "s"
    perLayer("graphgen.nodes_s") = median(runs.map(_._2)) -> "s"
    perLayer("graphgen.edges_s") = median(runs.map(_._3)) -> "s"
  }

  private lazy val local = trace.span("reference.collect")(GraphGen.toLocal(nodes, edges, spec.nClasses))._1

  /** The single-threaded forward, one span per layer, keyed by vertex id. */
  private def reference(name: String, model: GnnModel): java.util.HashMap[Long, Array[Double]] = {
    val (h, secs, _) = trace.span(s"core.$name.ref") {
      model.layers.zipWithIndex.foldLeft(local.x.toRows) { case (h, (layer, i)) =>
        trace.span(s"core.$name.layer$i")(LocalInference.forwardLayer(local, layer, h))._1
      }
    }
    perLayer(s"core.$name.ref_s") = secs -> "s"
    val ref = new java.util.HashMap[Long, Array[Double]]()
    local.ids.indices.foreach(i => ref.put(local.ids(i), h(i)))
    ref
  }

  /** Hub counts the two strategy pipelines act on, from their public entry
    * points. Runs after the passes, so it cannot warm them; it first drops
    * what the passes cached, so the transform is timed from the two tables.
    */
  private def strategyCounts(): Unit = {
    spark.catalog.clearCache()
    nodes = nodes.cache()
    edges = edges.cache()
    nodes.count()
    val nEdges = edges.count()
    val thr = ShadowNodes.threshold(nEdges, StrategyWorkers)
    val (sh, transformS, _) = trace.span("batch.shadow.transform")(ShadowNodes.transform(spark, nodes, edges, thr))
    perLayer("batch.shadow.transform_s") = transformS -> "s"
    perLayer("batch.shadow.hubs") = sh.nHubs.toDouble -> "count"
    perLayer("batch.shadow.mirrors") = sh.nMirrors.toDouble -> "count"
    perLayer("batch.shadow.edge_ratio") = sh.edges.count().toDouble / nEdges -> "ratio"
    val hubs = edges.groupBy("src").agg(count(lit(1)).as("deg")).filter(col("deg") > thr)
      .agg(count(lit(1)), coalesce(sum("deg"), lit(0L))).head()
    perLayer("batch.bcast.hubs") = hubs.getLong(0).toDouble -> "count"
    perLayer("batch.bcast.hub_edge_frac") = hubs.getLong(1).toDouble / nEdges -> "ratio"
    info("hub_threshold") = thr.toString
  }

  /** Rounds of one pass per pipeline, in a fixed order. The first round
    * always runs; another starts only if it would end within --seconds,
    * judged by the length of the round before it. The first round runs in
    * a fresh JVM, so its passes pay what one inference job pays: JIT and
    * query code generation, and the backends' own caching on first use.
    */
  private def measure(models: Map[String, GnnModel],
                      refs: Map[String, java.util.HashMap[Long, Array[Double]]]): Unit = {
    val passes = pipelines.map(_.name -> mutable.ArrayBuffer.empty[PassStats]).toMap
    val t0 = System.nanoTime()
    var round = 0
    var lastS = 0.0
    while (round == 0 || (System.nanoTime() - t0) / 1e9 + lastS <= a.seconds) {
      lastS = trace.span(s"round $round") {
        pipelines.foreach(p => pass(p, models(p.model), refs(p.model)).foreach(passes(p.name) += _))
      }._2
      round += 1
    }
    info("rounds") = round.toString

    pipelines.foreach { p =>
      val ps = passes(p.name).toSeq
      if (ps.isEmpty) throw new IllegalStateException(s"${p.name}: no pass completed")
      endToEnd(s"${p.name}.wall_s") = median(ps.map(_.wallS)) -> "s"
      endToEnd(s"${p.name}.cpu_s") = median(ps.map(_.cpuS)) -> "s"
      ps.head.counts.keys.toSeq.sorted.foreach { k =>
        perLayer(s"${p.name}.$k") = median(ps.map(_.counts(k))) -> unitOf(k)
      }
      val unsteady = RepeatingCounts.filter(k => ps.map(_.counts(k)).distinct.size > 1)
      if (unsteady.nonEmpty) {
        info(s"${p.name}.unrepeated_counts") = unsteady.mkString(",")
        Console.err.println(s"[perfbench] ${p.name}: counts differ between passes: ${unsteady.mkString(", ")}")
      }
    }
    if (a.traced)
      perLayer("trace.passes_wall_s") = pipelines.map(p => endToEnd(s"${p.name}.wall_s")._1).sum -> "s"
  }

  private def unitOf(count: String): String =
    if (count.endsWith("_bytes")) "bytes"
    else if (count.endsWith("_ms")) "ms"
    else if (count.endsWith("_s")) "s"
    else "count"

  /** One timed, checked pass; None when it threw. */
  private def pass(p: Pipeline, model: GnnModel,
                   ref: java.util.HashMap[Long, Array[Double]]): Option[PassStats] = {
    passNo += 1
    attempted += 1
    val group = s"perfbench-pass-$passNo"
    val spill = if (p.spills) Some(a.out.resolve("spill").resolve(p.name)) else None
    spill.foreach(Main.deleteTree)
    System.gc() // every pass starts from a collected heap
    val sc = spark.sparkContext
    sc.setJobGroup(group, p.name, interruptOnCancel = false)
    val startMs = System.currentTimeMillis()
    val (out, wallS, spanId) =
      try trace.span(p.name) {
        try Right(p.run(spark, nodes, edges, model, spill.map(_.toString)).collect())
        catch { case NonFatal(e) => Left(e) }
      } finally sc.clearJobGroup()
    val endMs = System.currentTimeMillis()
    listener.drain(sc)
    val rec = listener.take(group)
    out match {
      case Left(e) =>
        failed += 1
        Console.err.println(s"[perfbench] ${p.name} pass $passNo threw: $e")
        e.printStackTrace()
        None
      case Right(rows) =>
        mismatch(rows, ref).foreach { why =>
          failed += 1
          Console.err.println(s"[perfbench] ${p.name} pass $passNo is wrong: $why")
        }
        val stats = statsOf(rec, wallS, startMs, endMs, spill)
        trace.annotate(spanId, stats.counts + ("cpu_s" -> stats.cpuS))
        traceJobs(spanId, rec)
        Some(stats)
    }
  }

  private def statsOf(rec: GroupRecord, wallS: Double, startMs: Long, endMs: Long,
                      spill: Option[Path]): PassStats = {
    val t = rec.tasks
    val reads = t.map(_.shuffleReadBytes).filter(_ > 0).map(_.toDouble)
    val jobMs = unionMs(rec.jobs.map(j => (j.startMs, j.endMs)), startMs, endMs)
    val counts = Map(
      "shuffle_write_bytes" -> t.map(_.shuffleWriteBytes).sum.toDouble,
      "shuffle_write_records" -> t.map(_.shuffleWriteRecords).sum.toDouble,
      "shuffle_read_task_max_bytes" -> reads.maxOption.getOrElse(0.0),
      "shuffle_read_task_p50_bytes" -> (if (reads.isEmpty) 0.0 else median(reads)),
      "task_run_max_ms" -> t.map(_.runMs).maxOption.getOrElse(0L).toDouble,
      "peak_task_mem_bytes" -> t.map(_.peakMemBytes).maxOption.getOrElse(0L).toDouble,
      "jobs" -> rec.jobs.size.toDouble,
      "tasks" -> t.size.toDouble,
      "driver_gap_s" -> (wallS - jobMs / 1e3),
    ) ++ spill.map(d => "spill_bytes" -> Main.treeBytes(d).toDouble)
    PassStats(wallS, t.map(_.cpuNs).sum / 1e9, counts)
  }

  /** Spark jobs and stages of a pass as child spans, with their task counts. */
  private def traceJobs(passSpan: Int, rec: GroupRecord): Unit = if (trace.enabled) trace.bookkeeping {
    val tasksByStage = rec.tasks.groupBy(_.stageId)
    val placed = mutable.Set.empty[Int]
    rec.jobs.foreach { j =>
      val jobSpan = trace.add(passSpan, s"job ${j.jobId}", j.startMs.toDouble, j.endMs.toDouble,
        Map("succeeded" -> (if (j.ok) 1.0 else 0.0)))
      rec.stages.filter(s => j.stageIds.contains(s.stageId) && placed.add(s.stageId)).foreach { s =>
        val ts = tasksByStage.getOrElse(s.stageId, Seq.empty)
        trace.add(jobSpan, s"stage ${s.stageId}.${s.attempt} ${s.name}", s.startMs.toDouble, s.endMs.toDouble, Map(
          "tasks" -> ts.size.toDouble,
          "task_run_ms" -> ts.map(_.runMs).sum.toDouble,
          "task_run_max_ms" -> ts.map(_.runMs).maxOption.getOrElse(0L).toDouble,
          "shuffle_read_bytes" -> ts.map(_.shuffleReadBytes).sum.toDouble,
          "shuffle_read_task_max_bytes" -> ts.map(_.shuffleReadBytes).maxOption.getOrElse(0L).toDouble,
          "shuffle_write_bytes" -> ts.map(_.shuffleWriteBytes).sum.toDouble,
          "shuffle_write_records" -> ts.map(_.shuffleWriteRecords).sum.toDouble))
      }
    }
  }

  /** The info line, the trace file when traced, and the result as the last line. */
  def report(): Unit = {
    val sparkConf = ("master" -> s"local[${a.cores}]") +: SparkSettings
    val traceFile = a.out.resolve(s"trace-${a.workload}-seed${a.seed}.json")
    if (a.traced) {
      trace.bookkeeping(Files.writeString(traceFile, trace.toJson))
      perLayer("trace.overhead_s") = trace.overheadS -> "s"
    }
    val infoFields = Seq(
      "workload" -> Json.str(a.workload), "seed" -> Json.num(a.seed.toDouble),
      "seconds" -> Json.num(a.seconds), "traced" -> a.traced.toString,
      "cores" -> Json.num(a.cores), "rev" -> Json.str(a.rev),
      "spark_version" -> Json.str(org.apache.spark.SPARK_VERSION),
      "spark_conf" -> Json.obj(sparkConf.map { case (k, v) => k -> Json.str(v) }),
      "nodes" -> Json.num(local.n), "edges" -> Json.num(local.nEdges),
    ) ++ info.toSeq.map { case (k, v) => k -> Json.str(v) } ++
      (if (a.traced) Seq("trace_file" -> Json.str(traceFile.toString)) else Nil)
    println(Json.obj(Seq("info" -> Json.obj(infoFields))))
    val metrics = if (a.traced) perLayer else endToEnd
    println(Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, u)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
  }
}
