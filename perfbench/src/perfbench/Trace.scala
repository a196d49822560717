package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable

/** In-memory spans around the benchmark's calls into each layer.
  *
  * A span is (id, parent, name, start, end) in nanoseconds since the
  * tracer was made. Spans stay in memory and are written out once, at the
  * end of the run. A disabled tracer runs the body and records nothing,
  * so the untraced mode pays one branch per call.
  */
final class Tracer(val enabled: Boolean) {
  final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
  }

  private val origin = System.nanoTime()
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var current = -1

  def apply[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = spans.length
      val parent = current
      spans += null
      current = id
      val start = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, parent, name, start - origin, System.nanoTime() - origin)
        current = parent
      }
    }

  /** A leaf span whose bounds the caller already measured. */
  def record(name: String, startNs: Long, endNs: Long): Unit =
    if (enabled) spans += Span(spans.length, current, name, startNs - origin, endNs - origin)

  def seconds(name: String): Array[Double] = spans.iterator.filter(_.name == name).map(_.seconds).toArray

  /** One JSON object per line: the span file of the run. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}

object Stats {
  /** Nearest-rank percentile, q in [0, 1]. */
  def percentile(xs: Array[Double], q: Double): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(q * s.length).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    val h = s.length / 2
    if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
  }
}
