package perfbench

import scala.collection.mutable

/** A timed interval at a layer boundary. Times are epoch milliseconds. */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      counts: Map[String, Double])

/** In-memory span recorder, written out once when the benchmark ends.
  * A disabled trace records nothing; callers still get their timings.
  * Time spent recording is summed as the tracing overhead.
  */
final class Trace(val enabled: Boolean) {
  private val spans = mutable.LinkedHashMap.empty[Int, Span]
  private var nextId = 0
  private var stack: List[Int] = List(0)
  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nano0 = System.nanoTime()
  private var overheadNs = 0L
  private var depth = 0

  private def msOf(nano: Long): Double = epochMs0 + (nano - nano0) / 1e6

  def overheadS: Double = overheadNs / 1e9

  /** Run work that only tracing needs, counting its time as overhead. */
  def bookkeeping[T](body: => T): T = {
    val t0 = System.nanoTime()
    depth += 1
    try body
    finally {
      depth -= 1
      if (depth == 0) overheadNs += System.nanoTime() - t0
    }
  }

  /** Time `body` as a child of the current span; returns its result, its
    * seconds, and its span id (0 when disabled).
    */
  def span[T](name: String)(body: => T): (T, Double, Int) = {
    val (id, parent) =
      if (enabled) bookkeeping { nextId += 1; val p = stack.head; stack = nextId :: stack; (nextId, p) }
      else (0, 0)
    val t0 = System.nanoTime()
    val out =
      try body
      finally if (enabled) bookkeeping { stack = stack.tail }
    val t1 = System.nanoTime()
    if (enabled) bookkeeping { spans(id) = Span(id, parent, name, msOf(t0), msOf(t1), Map.empty) }
    (out, (t1 - t0) / 1e9, id)
  }

  /** Attach counts to a finished span. */
  def annotate(id: Int, counts: Map[String, Double]): Unit =
    if (enabled) bookkeeping(spans.get(id).foreach(s => spans(id) = s.copy(counts = s.counts ++ counts)))

  /** Record a span observed elsewhere, such as a Spark job or stage. */
  def add(parent: Int, name: String, startMs: Double, endMs: Double,
          counts: Map[String, Double] = Map.empty): Int =
    if (!enabled) 0
    else bookkeeping {
      nextId += 1
      spans(nextId) = Span(nextId, parent, name, startMs, endMs, counts)
      nextId
    }

  def toJson: String = Json.arr(spans.values.toSeq.sortBy(_.id).map { s =>
    Json.obj(Seq("id" -> Json.num(s.id), "parent" -> Json.num(s.parent),
      "name" -> Json.str(s.name), "start_ms" -> Json.num(s.startMs), "end_ms" -> Json.num(s.endMs),
      "counts" -> Json.obj(s.counts.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) })))
  })
}

/** Just enough JSON writing for the result line and the trace file. */
object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
  def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  def arr(xs: Seq[String]): String = xs.mkString("[", ", ", "]")
}
