package perfbench

import java.lang.management.ManagementFactory
import repro.core.Monoid
import scala.jdk.CollectionConverters._

/** Spans recorded from the benchmark's own code around each call into a
  * layer. A span has a name, start, end, parent span and the id of the step
  * it belongs to. Every span feeds a per-name histogram and total; the
  * first `Cap` spans are also kept in memory and written out when the run
  * ends.
  */
final class Tracer(names: Seq[String]) {
  private val Cap = 200000
  private val nameIds = names.zipWithIndex.toMap
  private val sName = new Array[Int](Cap)
  private val sStep = new Array[Long](Cap)
  private val sParent = new Array[Int](Cap)
  private val sStart = new Array[Long](Cap)
  private val sEnd = new Array[Long](Cap)
  private var kept = 0
  private var hists = names.map(_ => new Hist).toArray

  /** Drop every span recorded so far. */
  def reset(): Unit = { kept = 0; hists = names.map(_ => new Hist).toArray }

  def id(name: String): Int = nameIds(name)

  /** Start a span whose children are recorded before it ends; returns its
    * slot, which children name as parent (-1 once the buffer is full).
    */
  def open(nameId: Int, step: Long, parent: Int, start: Long): Int =
    if (kept < Cap) {
      val k = kept
      sName(k) = nameId; sStep(k) = step; sParent(k) = parent; sStart(k) = start; sEnd(k) = -1L
      kept += 1
      k
    } else -1

  def close(slot: Int, nameId: Int, start: Long, end: Long): Unit = {
    hists(nameId).add(end - start)
    if (slot >= 0) sEnd(slot) = end
  }

  /** Record a finished span. */
  def span(nameId: Int, step: Long, parent: Int, start: Long, end: Long): Unit =
    close(open(nameId, step, parent, start), nameId, start, end)

  def hist(name: String): Hist = hists(id(name))
  def totalNs(name: String): Long = hist(name).sum

  /** Kept spans as CSV: step,span,name,parent,start_ns,end_ns. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("step,span,name,parent,start_ns,end_ns\n")
      var k = 0
      while (k < kept) {
        w.write(s"${sStep(k)},$k,${names(sName(k))},${sParent(k)},${sStart(k)},${sEnd(k)}\n")
        k += 1
      }
    } finally w.close()
  }
}

/** Counts `combine` calls of the monoid it wraps. */
final class CountingMonoid[V](inner: Monoid[V]) extends Monoid[V] {
  var combines = 0L
  def identity: V = inner.identity
  def combine(x: V, y: V): V = { combines += 1; inner.combine(x, y) }
  def name: String = inner.name
}

/** JVM counters read before and after a timed region. */
final case class JvmSnapshot(allocBytes: Long, gcCount: Long, gcMs: Long, nanos: Long) {
  def -(o: JvmSnapshot): JvmSnapshot =
    JvmSnapshot(allocBytes - o.allocBytes, gcCount - o.gcCount, gcMs - o.gcMs, nanos - o.nanos)
}

object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def threadAlloc(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated by the current thread, or by all live threads. */
  def snapshot(allThreads: Boolean): JvmSnapshot = {
    val alloc =
      if (allThreads) threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum
      else threadAlloc()
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    JvmSnapshot(alloc, gcs.map(_.getCollectionCount).sum, gcs.map(_.getCollectionTime).sum,
      System.nanoTime())
  }

  /** Heap in use after full collections. */
  def usedHeapAfterGc(): Long = {
    var i = 0
    while (i < 3) { System.gc(); i += 1 }
    val rt = Runtime.getRuntime
    rt.totalMemory() - rt.freeMemory()
  }

  def env(seed: Long, seconds: Int): Seq[(String, Any)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "jdk" -> System.getProperty("java.version"),
      "vm" -> System.getProperty("java.vm.name"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "heap_max_bytes" -> Runtime.getRuntime.maxMemory(),
      "jvm_flags" -> rt.getInputArguments.asScala.filter(a => a.startsWith("-X") && !a.startsWith("-XX:+Unlock")).mkString(" "),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
      "seed" -> seed,
      "run_seconds" -> seconds,
    )
  }
}
