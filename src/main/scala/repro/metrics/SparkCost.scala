package repro.metrics

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

/** Resource accounting for one measured region — the stand-in for the
  * paper's `cpu*min`: summed executor task time plus any driver-side
  * compute the caller reports, and shuffle traffic for the IO studies.
  */
final case class Cost(
    wallMs: Long,
    execRunMs: Long,
    execCpuMs: Long,
    shuffleReadBytes: Long,
    shuffleReadRecords: Long,
    shuffleWriteBytes: Long,
    shuffleWriteRecords: Long,
    driverMs: Long = 0L,
    jobs: Long = 0L) {
  /** cpu·s proxy: executor task time + driver compute. */
  def cpuSec: Double = (execRunMs + driverMs) / 1000.0
  def withDriver(ms: Long): Cost = copy(driverMs = driverMs + ms)
  def -(b: Cost): Cost = Cost(wallMs - b.wallMs, execRunMs - b.execRunMs, execCpuMs - b.execCpuMs,
    shuffleReadBytes - b.shuffleReadBytes, shuffleReadRecords - b.shuffleReadRecords,
    shuffleWriteBytes - b.shuffleWriteBytes, shuffleWriteRecords - b.shuffleWriteRecords,
    driverMs - b.driverMs, jobs - b.jobs)
}

/** A SparkListener that attributes task metrics to job groups so benches can
  * measure each pipeline independently within one shared session.
  */
object SparkCost {

  private final class Acc {
    @volatile var runMs = 0L
    @volatile var cpuMs = 0L
    @volatile var srB = 0L; @volatile var srR = 0L
    @volatile var swB = 0L; @volatile var swR = 0L
    @volatile var jobs = 0L
  }

  private val byGroup = new ConcurrentHashMap[String, Acc]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val stageJob = new ConcurrentHashMap[Int, Int]()
  private val SentinelPrefix = "sparkcost-drain#"
  private val sentinelsSeen = new java.util.HashSet[String]()
  @volatile private var installed = false

  private def install(spark: SparkSession): Unit = synchronized {
    if (!installed) {
      spark.sparkContext.addSparkListener(new SparkListener {
        override def onJobStart(e: SparkListenerJobStart): Unit = {
          val grp = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
          if (grp.startsWith(SentinelPrefix)) sentinelsSeen.synchronized {
            sentinelsSeen.add(grp)
            sentinelsSeen.notifyAll()
          }
          jobGroup.put(e.jobId, grp)
          val acc = byGroup.computeIfAbsent(grp, _ => new Acc)
          acc.synchronized { acc.jobs += 1 }
          e.stageIds.foreach(s => stageJob.put(s, e.jobId))
        }
        override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
          val grp = Option(stageJob.get(e.stageId)).map(jobGroup.get).getOrElse(null)
          if (grp != null && e.taskMetrics != null) {
            val acc = byGroup.computeIfAbsent(grp, _ => new Acc)
            acc.synchronized {
              acc.runMs += e.taskMetrics.executorRunTime
              acc.cpuMs += e.taskMetrics.executorCpuTime / 1000000L
              acc.srB += e.taskMetrics.shuffleReadMetrics.totalBytesRead
              acc.srR += e.taskMetrics.shuffleReadMetrics.recordsRead
              acc.swB += e.taskMetrics.shuffleWriteMetrics.bytesWritten
              acc.swR += e.taskMetrics.shuffleWriteMetrics.recordsWritten
            }
          }
        }
      })
      installed = true
    }
  }

  private def snapshot(tag: String): Cost = {
    val a = byGroup.computeIfAbsent(tag, _ => new Acc)
    Cost(0L, a.runMs, a.cpuMs, a.srB, a.srR, a.swB, a.swR, jobs = a.jobs)
  }

  /** Waits until the listener has seen every event posted so far. It runs a
    * one-task sentinel job in a group of its own and waits for that job's
    * start: the scheduler posts a task's end before it lets the task's job
    * finish, and the bus delivers events in order, so by then every task of
    * the jobs that ran before has been recorded.
    */
  private def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    val tag = s"$SentinelPrefix${System.nanoTime()}"
    sc.setJobGroup(tag, "listener drain", interruptOnCancel = false)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 60L * 1000000000L
    sentinelsSeen.synchronized {
      while (!sentinelsSeen.remove(tag)) {
        val leftMs = (deadline - System.nanoTime()) / 1000000L
        if (leftMs <= 0) throw new IllegalStateException("listener bus did not drain within 60 s")
        sentinelsSeen.wait(leftMs)
      }
    }
  }

  /** Run `body` under a job group and return its cost, read after the
    * listener has seen every task of the body's jobs.
    */
  def measure[T](spark: SparkSession, tag: String)(body: => T): (T, Cost) = {
    install(spark)
    val unique = s"$tag#${System.nanoTime()}"
    spark.sparkContext.setJobGroup(unique, tag, interruptOnCancel = false)
    val t0 = System.nanoTime()
    val result =
      try body
      finally spark.sparkContext.clearJobGroup()
    val wallMs = (System.nanoTime() - t0) / 1000000L
    drain(spark)
    val c = snapshot(unique)
    (result, c.copy(wallMs = wallMs))
  }
}
