package perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** What one finished task cost. */
final case class TaskRec(stageId: Int, runMs: Long, cpuNs: Long, shuffleReadBytes: Long,
                         shuffleWriteBytes: Long, shuffleWriteRecords: Long, peakMemBytes: Long)

/** A Spark job, with its wall-clock start and end (epoch ms). */
final case class JobRec(jobId: Int, startMs: Long, endMs: Long, ok: Boolean, stageIds: Seq[Int])

/** A Spark stage attempt as the scheduler reports it on completion. */
final case class StageRec(stageId: Int, attempt: Int, name: String, startMs: Long, endMs: Long)

/** Everything the listener saw for one job group. */
final case class GroupRecord(jobs: Seq[JobRec], stages: Seq[StageRec], tasks: Seq[TaskRec])

/** Attributes every job, stage and task to the job group it ran under.
  *
  * Listener events arrive asynchronously. [[drain]] makes reading them
  * deterministic without sleeping: it runs a one-task sentinel job in a job
  * group of its own and waits until the listener has seen that job start.
  * The scheduler posts a task's end before it lets the job that owns the task
  * finish, and the bus delivers events in the order they were posted, so once
  * the sentinel's start is seen every task of the jobs that ran before it has
  * been recorded.
  */
final class PassListener extends SparkListener {

  private final class Group {
    val jobStarts = new ConcurrentHashMap[Int, (Long, Seq[Int])]()
    val jobEnds = new ConcurrentHashMap[Int, (Long, Boolean)]()
    val stages = new ConcurrentLinkedQueue[StageRec]()
    val tasks = new ConcurrentLinkedQueue[TaskRec]()
  }

  private val groups = new ConcurrentHashMap[String, Group]()
  private val jobGroup = new ConcurrentHashMap[Int, String]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val seenSentinels = new java.util.HashSet[String]()
  private var sentinelCount = 0

  private def groupOf(props: java.util.Properties): String =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).orNull

  private def group(name: String): Group = groups.computeIfAbsent(name, _ => new Group)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = groupOf(e.properties)
    if (g != null) {
      if (g.startsWith(PassListener.SentinelPrefix)) seenSentinels.synchronized {
        seenSentinels.add(g)
        seenSentinels.notifyAll()
      } else {
        jobGroup.put(e.jobId, g)
        group(g).jobStarts.put(e.jobId, (e.time, e.stageIds))
      }
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val g = jobGroup.remove(e.jobId)
    if (g != null) group(g).jobEnds.put(e.jobId, (e.time, e.jobResult == JobSucceeded))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val g = groupOf(e.properties)
    if (g != null && !g.startsWith(PassListener.SentinelPrefix)) stageGroup.put(e.stageInfo.stageId, g)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = {
    val s = e.stageInfo
    val g = stageGroup.get(s.stageId)
    if (g != null) group(g).stages.add(StageRec(s.stageId, s.attemptNumber(), s.name,
      s.submissionTime.getOrElse(0L), s.completionTime.getOrElse(0L)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    val m = e.taskMetrics
    if (g != null && m != null) group(g).tasks.add(TaskRec(e.stageId, m.executorRunTime, m.executorCpuTime,
      m.shuffleReadMetrics.totalBytesRead, m.shuffleWriteMetrics.bytesWritten,
      m.shuffleWriteMetrics.recordsWritten, m.peakExecutionMemory))
  }

  /** Block until every event of the jobs already run has been delivered. */
  def drain(sc: SparkContext, timeoutMs: Long = 60000L): Unit = {
    val token = seenSentinels.synchronized { sentinelCount += 1; s"${PassListener.SentinelPrefix}$sentinelCount" }
    sc.setJobGroup(token, "listener drain", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    seenSentinels.synchronized {
      while (!seenSentinels.contains(token)) {
        val left = deadline - System.currentTimeMillis()
        if (left <= 0) throw new IllegalStateException(s"listener did not deliver $token in $timeoutMs ms")
        seenSentinels.wait(left)
      }
      seenSentinels.remove(token)
    }
  }

  /** Remove and return what was recorded for `name`; call after [[drain]]. */
  def take(name: String): GroupRecord = {
    val g = Option(groups.remove(name)).getOrElse(new Group)
    val jobs = g.jobStarts.asScala.toSeq.sortBy(_._1).map { case (id, (st, stages)) =>
      val (end, ok) = Option(g.jobEnds.get(id)).getOrElse((st, false))
      JobRec(id, st, end, ok, stages)
    }
    GroupRecord(jobs, g.stages.asScala.toSeq.sortBy(s => (s.stageId, s.attempt)), g.tasks.asScala.toSeq)
  }
}

object PassListener {
  val SentinelPrefix = "perfbench-drain-"
}
