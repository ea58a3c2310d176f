package perfbench

import repro.bench.Workloads
import repro.core.{Monoid, Swag}

/** `citibike`: the synthetic Citi-Bike stream with a 1-day event-time
  * window. Each arrival is an insert at its natural out-of-order distance,
  * a bulk evict when the watermark advances, and a query. One arrival takes
  * a few hundred nanoseconds, too close to the clock's own cost to time one
  * by one, so one step is a block of `Block` arrivals. The stream is
  * replayed in passes, each into a fresh window.
  */
final class CitiBike(seed: Long, trace: Boolean, tracer: Tracer,
                     newSwag: Monoid[Double] => Swag[Double] = Sut.newSwag) extends Workload {
  import CitiBike._
  val warmupSeconds = 4.0
  val allThreads = false

  private var times: Array[Long] = _
  private var values: Array[Double] = _
  private var expected: Array[Double] = _ // query answer after each arrival
  private var evictedAt: Array[Int] = _   // entries the arrival's bulk evict removes
  private var windowAt: Array[Int] = _    // live entries after each arrival
  private var widestAt = 0                // arrival after which the window is largest
  private val counting = if (trace) new CountingMonoid(Sut.Sum) else null
  private val monoid: Monoid[Double] = if (trace) counting else Sut.Sum
  private var swag: Swag[Double] = _
  private val answers = new Array[Double](Block)
  private var watermark = Long.MinValue
  private var i = 0
  private var nChecked = 0L
  private var nFailed = 0L
  private var stepId = 0L
  // traced steps only
  private var combines = 0L
  private var evictedTotal = 0L
  private var windowTotal = 0L

  private val S = tracer.id("step")
  private val Ins = tracer.id("fiba.insert")
  private val Ev = tracer.id("fiba.bulk_evict")
  private val Q = tracer.id("fiba.query")

  def setup(): Unit = {
    val rides = Workloads.citiBike(Events, seed)
    times = rides.iterator.map(_.time).toArray
    values = rides.iterator.map(_.value).toArray
    expected = new Array[Double](Events)
    evictedAt = new Array[Int](Events)
    windowAt = new Array[Int](Events)
    val ref = new WindowRef
    var wm = Long.MinValue
    var widest = -1
    var k = 0
    while (k < Events) {
      ref.insert(times(k), values(k))
      if (times(k) > wm) { wm = times(k); evictedAt(k) = ref.evictUpTo(wm - WindowLen) }
      expected(k) = ref.sum
      windowAt(k) = ref.size
      if (ref.size > widest) { widest = ref.size; widestAt = k }
      k += 1
    }
    newPass()
  }

  private def newPass(): Unit = {
    swag = newSwag(monoid)
    watermark = Long.MinValue
    i = 0
  }

  def step(traced: Boolean): Long = {
    if (i == Events) newPass()
    val from = i
    val until = i + Block
    var k = from
    val t0 = System.nanoTime()
    var t1 = 0L
    if (!traced) {
      while (k < until) {
        val t = times(k)
        swag.insert(t, values(k))
        if (t > watermark) { watermark = t; swag.bulkEvict(watermark - WindowLen) }
        answers(k - from) = swag.query()
        k += 1
      }
      t1 = System.nanoTime()
    } else {
      val c0 = counting.combines
      val s = tracer.open(S, stepId, -1, t0)
      while (k < until) {
        val t = times(k)
        val s0 = System.nanoTime()
        swag.insert(t, values(k))
        var s1 = System.nanoTime()
        tracer.span(Ins, stepId, s, s0, s1)
        if (t > watermark) {
          watermark = t
          swag.bulkEvict(watermark - WindowLen)
          val s2 = System.nanoTime()
          tracer.span(Ev, stepId, s, s1, s2)
          evictedTotal += evictedAt(k)
          s1 = s2
        }
        answers(k - from) = swag.query()
        val s3 = System.nanoTime()
        tracer.span(Q, stepId, s, s1, s3)
        windowTotal += windowAt(k)
        k += 1
      }
      t1 = System.nanoTime()
      tracer.close(s, S, t0, t1)
      combines += counting.combines - c0
      stepId += 1
    }
    // check (untimed)
    k = from
    while (k < until) {
      if (answers(k - from) != expected(k)) nFailed += 1
      k += 1
    }
    nChecked += Block
    i = until
    t1 - t0
  }

  def startMeasuring(): Unit = {
    tracer.reset()
    combines = 0; evictedTotal = 0; windowTotal = 0
  }

  def lastItems: Int = Block
  def checked: Long = nChecked
  def failed: Long = nFailed

  /** Heap retained by copies of the window at its widest point, each
    * replayed from `ReplayFrom` arrivals before that point.
    */
  def residentBytesPerItem(): Double = {
    swag = null
    Resident.perItem(Copies) { () =>
      val w = newSwag(Sut.Sum)
      var wm = Long.MinValue
      var k = math.max(0, widestAt - ReplayFrom)
      while (k <= widestAt) {
        w.insert(times(k), values(k))
        if (times(k) > wm) { wm = times(k); w.bulkEvict(wm - WindowLen) }
        k += 1
      }
      (w, w.size)
    }
  }

  def traffic(): Seq[(String, Any)] = {
    val rides = times.indices.map(k => Workloads.Ride(times(k), values(k)))
    val tr = Workloads.traceTimeWindow(rides, WindowLen)
    val evicts = tr.ms.filter(_ > 0).map(_.toDouble).toSeq
    val ds = tr.ds.map(_.toDouble).toSeq
    val ns = tr.ns.map(_.toDouble).toSeq
    Seq(
      "events_per_pass" -> Events,
      "ooo_share" -> tr.ds.count(_ > 0).toDouble / Events,
      "d_p50" -> Stats.quantileOf(ds, 0.5), "d_p99" -> Stats.quantileOf(ds, 0.99), "d_max" -> ds.max,
      "evicting_steps_share" -> evicts.size.toDouble / Events,
      "m_p50" -> Stats.quantileOf(evicts, 0.5), "m_p99" -> Stats.quantileOf(evicts, 0.99), "m_max" -> evicts.max,
      "window_entries_p50" -> Stats.quantileOf(ns, 0.5), "window_entries_max" -> ns.max,
    )
  }

  /** Every allocation of a step happens inside the Swag calls, so the
    * FiBA allocation per item is the benchmark thread's (see `Runner`).
    */
  def layerMetrics(o: Runner.Outcome): Seq[Metric] = {
    val n = o.steps.items.toDouble
    val ins = tracer.hist("fiba.insert")
    val ev = tracer.hist("fiba.bulk_evict")
    val q = tracer.hist("fiba.query")
    val fibaNs = ins.sum + ev.sum + q.sum
    Seq(
      Metric("monoid.combine_per_item", combines / n, "count"),
      Metric("fiba.insert_ns_p50", ins.quantile(0.5), "ns"),
      Metric("fiba.insert_ns_p99", ins.quantile(0.99), "ns"),
      Metric("fiba.query_ns_p50", q.quantile(0.5), "ns"),
      Metric("fiba.bulk_evict_ns_p50", ev.quantile(0.5), "ns"),
      Metric("fiba.bulk_evict_ns_p99", ev.quantile(0.99), "ns"),
      Metric("fiba.bulk_evict_ns_per_evicted", ev.sum.toDouble / math.max(1L, evictedTotal), "ns"),
      Metric("fiba.alloc_b_per_item", o.jvm.allocBytes.toDouble / n, "B"),
      Metric("fiba.window_entries", windowTotal / n, "count"),
      Metric("self.harness_ns_per_item", (tracer.totalNs("step") - fibaNs) / n, "ns"),
      Metric("self.fiba_ns_per_item", fibaNs / n, "ns"),
    )
  }

  def close(): Unit = ()
}

object CitiBike {
  val SpanNames = Seq("step", "fiba.insert", "fiba.bulk_evict", "fiba.query")
  val Events: Int = 1 << 19
  val Block = 8192 // arrivals per step; divides Events
  val WindowLen: Long = Workloads.DaySeconds
  private val Copies = 64
  private val ReplayFrom = 50000
}

/** Retained heap of a structure: used heap with copies of it live, minus
  * used heap once they are dropped, per entry. Both readings are taken
  * after building, so only the copies differ between them.
  */
object Resident {
  private var held: Array[AnyRef] = _

  /** `build` returns a new copy of the structure and its number of entries. */
  def perItem(copies: Int)(build: () => (AnyRef, Int)): Double = {
    held = new Array[AnyRef](copies)
    var entries = 0L
    var k = 0
    while (k < copies) {
      val (s, n) = build()
      held(k) = s
      entries += n
      k += 1
    }
    val withThem = Jvm.usedHeapAfterGc()
    held = null
    (withThem - Jvm.usedHeapAfterGc()).toDouble / entries
  }
}
