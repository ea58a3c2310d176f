package perfbench

import repro.core.{Monoid, Swag}
import scala.util.Random

/** `ooo_bulk`: the Fig 13 geometry with a window of n entries, m = 1024 and
  * d = 1024. The in-order stream takes even timestamps; each round also
  * inserts m odd timestamps whose youngest lies d even entries below the
  * top. One step is one round: a bulk evict of the oldest 2m entries, an
  * in-order bulk insert of m, an out-of-order bulk insert of m and a query.
  * Each round's values are generated just before the round, untimed; the
  * conversion into the Swag's bulk type is timed.
  */
final class OooBulk(seed: Long, trace: Boolean, tracer: Tracer,
                     newSwag: Monoid[Double] => Swag[Double] = Sut.newSwag) extends Workload {
  import OooBulk._
  val warmupSeconds = 4.0
  val allThreads = false

  private val rnd = new Random(seed)
  private val counting = if (trace) new CountingMonoid(Sut.Sum) else null
  private val monoid: Monoid[Double] = if (trace) counting else Sut.Sum
  private var swag: Swag[Double] = _
  // reference: value by timestamp (0 = absent) in a ring over the live span
  private val ring = new Array[Double](RingSize)
  private var refSum = 0.0
  private var refSize = 0
  private var lo = 1L  // oldest live timestamp
  private var top = 0L // youngest (even) timestamp
  private val evenT = new Array[Long](M)
  private val evenV = new Array[Double](M)
  private val oddT = new Array[Long](M)
  private val oddV = new Array[Double](M)
  private var nChecked = 0L
  private var nFailed = 0L
  private var stepId = 0L
  private var combines = 0L
  private var fibaAlloc = 0L
  private var buildAlloc = 0L
  private var evictedTotal = 0L
  private var evictedLast = 0

  private val S = tracer.id("step")
  private val Ev = tracer.id("fiba.bulk_evict")
  private val Build = tracer.id("swag.bulk_build")
  private val InsIn = tracer.id("fiba.bulk_insert_inorder")
  private val InsOoo = tracer.id("fiba.bulk_insert_ooo")
  private val Q = tracer.id("fiba.query")

  private def value(): Double = (rnd.nextInt(1000) + 1).toDouble

  private def refAdd(t: Long, v: Double): Unit = {
    ring((t & RingMask).toInt) = v; refSum += v; refSize += 1
  }

  /** Window of `N` entries: every timestamp up to top - 2D - 1, then evens. */
  def setup(): Unit = {
    swag = newSwag(monoid)
    top = 2 * ((N + D + 2) / 2)
    var t = 1L
    while (t <= top) {
      if (t <= top - 2 * D - 1 || t % 2 == 0) {
        val v = value()
        swag.insert(t, v)
        refAdd(t, v)
      }
      t += 1
    }
  }

  def step(traced: Boolean): Long = {
    // inputs for this round (untimed)
    val oddLo = top - 2 * D + 1
    var k = 0
    while (k < M) {
      evenT(k) = top + 2 * (k + 1); evenV(k) = value()
      oddT(k) = oddLo + 2 * k; oddV(k) = value()
      k += 1
    }
    val cut = lo + 2 * M - 1
    var q = 0.0
    val t0 = System.nanoTime()
    var t1 = 0L
    if (!traced) {
      swag.bulkEvict(cut)
      swag.bulkInsert(Sut.toBulk(evenT, evenV, M))
      swag.bulkInsert(Sut.toBulk(oddT, oddV, M))
      q = swag.query()
      t1 = System.nanoTime()
    } else {
      val c0 = counting.combines
      val s = tracer.open(S, stepId, -1, t0)
      var a0 = Jvm.threadAlloc()
      val s0 = System.nanoTime()
      swag.bulkEvict(cut)
      val s1 = System.nanoTime()
      var a1 = Jvm.threadAlloc()
      fibaAlloc += a1 - a0
      tracer.span(Ev, stepId, s, s0, s1)
      val evens = Sut.toBulk(evenT, evenV, M)
      val s2 = System.nanoTime()
      a0 = Jvm.threadAlloc()
      buildAlloc += a0 - a1
      tracer.span(Build, stepId, s, s1, s2)
      swag.bulkInsert(evens)
      val s3 = System.nanoTime()
      a1 = Jvm.threadAlloc()
      fibaAlloc += a1 - a0
      tracer.span(InsIn, stepId, s, s2, s3)
      val odds = Sut.toBulk(oddT, oddV, M)
      val s4 = System.nanoTime()
      a0 = Jvm.threadAlloc()
      buildAlloc += a0 - a1
      tracer.span(Build, stepId, s, s3, s4)
      swag.bulkInsert(odds)
      val s5 = System.nanoTime()
      tracer.span(InsOoo, stepId, s, s4, s5)
      q = swag.query()
      t1 = System.nanoTime()
      fibaAlloc += Jvm.threadAlloc() - a0
      tracer.span(Q, stepId, s, s5, t1)
      tracer.close(s, S, t0, t1)
      combines += counting.combines - c0
      stepId += 1
    }
    // reference (untimed)
    var evicted = 0
    var t = lo
    while (t <= cut) {
      val j = (t & RingMask).toInt
      if (ring(j) != 0.0) { refSum -= ring(j); ring(j) = 0.0; refSize -= 1; evicted += 1 }
      t += 1
    }
    k = 0
    while (k < M) { refAdd(evenT(k), evenV(k)); refAdd(oddT(k), oddV(k)); k += 1 }
    lo = cut + 1
    top += 2 * M
    if (traced) evictedTotal += evicted
    evictedLast = evicted
    nChecked += 1
    if (q != refSum) nFailed += 1
    t1 - t0
  }

  def startMeasuring(): Unit = {
    tracer.reset()
    combines = 0; fibaAlloc = 0; buildAlloc = 0; evictedTotal = 0
  }

  /** The reference sum of the window, a digest of the inputs so far. */
  private[perfbench] def windowSum: Double = refSum

  def lastItems: Int = 2 * M
  def checked: Long = nChecked
  def failed: Long = nFailed

  /** Heap retained by a window after set-up and `ResidentRounds` rounds,
    * replayed from the same seed. The free list grows with the rounds run,
    * so a fixed count keeps the figure independent of the run's speed.
    */
  def residentBytesPerItem(): Double = {
    swag = null
    Resident.perItem(copies = 1) { () =>
      val replay = new OooBulk(seed, trace = false, tracer, newSwag)
      replay.setup()
      var k = 0
      while (k < ResidentRounds) { replay.step(traced = false); k += 1 }
      (replay.swag, replay.swag.size)
    }
  }

  def traffic(): Seq[(String, Any)] = {
    // d of an odd entry: even entries above it when its bulk arrives
    val ds = (0 until M).map(k => (D + M - k).toDouble) ++ Seq.fill(M)(0.0)
    Seq(
      "window_entries" -> refSize,
      "ooo_share" -> 0.5,
      "d_p50" -> Stats.quantileOf(ds, 0.5),
      "d_p99" -> Stats.quantileOf(ds, 0.99),
      "d_max" -> ds.max,
      "m_evict" -> evictedLast,
      "m_insert_inorder" -> M,
      "m_insert_ooo" -> M,
    )
  }

  def layerMetrics(o: Runner.Outcome): Seq[Metric] = {
    val n = o.steps.items.toDouble
    val ev = tracer.hist("fiba.bulk_evict")
    val build = tracer.hist("swag.bulk_build")
    val insIn = tracer.hist("fiba.bulk_insert_inorder")
    val insOoo = tracer.hist("fiba.bulk_insert_ooo")
    val q = tracer.hist("fiba.query")
    val fibaNs = ev.sum + insIn.sum + insOoo.sum + q.sum
    Seq(
      Metric("monoid.combine_per_item", combines / n, "count"),
      Metric("swag.bulk_build_ns_per_item", build.sum / n, "ns"),
      Metric("swag.bulk_build_alloc_b_per_item", buildAlloc / n, "B"),
      Metric("fiba.bulk_evict_ns_p50", ev.quantile(0.5), "ns"),
      Metric("fiba.bulk_evict_ns_p99", ev.quantile(0.99), "ns"),
      Metric("fiba.bulk_evict_ns_per_evicted", ev.sum.toDouble / math.max(1L, evictedTotal), "ns"),
      Metric("fiba.bulk_insert_inorder_ns_per_item", insIn.sum / (n / 2), "ns"),
      Metric("fiba.bulk_insert_ooo_ns_per_item", insOoo.sum / (n / 2), "ns"),
      Metric("fiba.query_ns_p50", q.quantile(0.5), "ns"),
      Metric("fiba.alloc_b_per_item", fibaAlloc / n, "B"),
      Metric("fiba.window_entries", refSize.toDouble, "count"),
      Metric("self.harness_ns_per_item", (tracer.totalNs("step") - fibaNs - build.sum) / n, "ns"),
      Metric("self.swag_ns_per_item", build.sum / n, "ns"),
      Metric("self.fiba_ns_per_item", fibaNs / n, "ns"),
    )
  }

  def close(): Unit = ()
}

object OooBulk {
  val SpanNames = Seq("step", "fiba.bulk_evict", "swag.bulk_build",
    "fiba.bulk_insert_inorder", "fiba.bulk_insert_ooo", "fiba.query")
  val N: Long = 1L << 17
  val M = 1024
  val D = 1024
  private val ResidentRounds = 2000
  private val RingSize = 1 << 19
  private val RingMask = RingSize - 1L
}
