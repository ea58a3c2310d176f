package perfbench

/** A named value with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** One workload: a closed loop of steps from one client thread. The
  * workload times the part of each step that calls the system; generating
  * inputs and checking results stay outside that time.
  */
trait Workload {
  /** Inputs, reference answers, prefill; everything before the first step. */
  def setup(): Unit
  /** Run one step, with spans when `traced`; returns the timed nanoseconds. */
  def step(traced: Boolean): Long
  /** Called after warm-up: forget the spans and counts of earlier steps. */
  def startMeasuring(): Unit
  /** Items (events) the last step processed. */
  def lastItems: Int
  /** Results checked against the reference so far, and how many were wrong. */
  def checked: Long
  def failed: Long
  def warmupSeconds: Double
  /** Allocation counters cover all threads (the engine runs its own). */
  def allThreads: Boolean
  /** After the timed region: resident bytes per window entry. */
  def residentBytesPerItem(): Double
  def traffic(): Seq[(String, Any)]
  /** Per-layer metrics of a traced run. */
  def layerMetrics(o: Runner.Outcome): Seq[Metric]
  def close(): Unit
}

/** Aggregates of the measured steps, also per chunk of about a second. */
final class Tally {
  val hist = new Hist
  var items = 0L
  private val chunkRates = scala.collection.mutable.ArrayBuffer.empty[Double]
  private var chunkItems = 0L
  private var chunkNs = 0L

  def add(ns: Long, items0: Int): Unit = {
    hist.add(ns); items += items0
    chunkItems += items0; chunkNs += ns
  }

  def endChunk(): Unit = if (chunkNs > 0) {
    chunkRates += chunkItems / (chunkNs / 1e9)
    chunkItems = 0; chunkNs = 0
  }

  def chunks: Int = chunkRates.length

  /** Median over chunks of items per second of step time, so that a
    * passing slow or fast spell of a shared host moves it less than a mean.
    */
  def throughput: Double = Stats.quantileOf(chunkRates.toSeq, 0.5)
}

object Runner {
  /** The tail percentile with a bound: every workload has 100 results in a
    * run, so p90 is supported for all, and it is steadier between runs than
    * p99 on a shared host.
    */
  val TailP = 0.9

  /** Wall time of one throughput chunk. */
  val ChunkNs = 1000000000L

  final case class Outcome(steps: Tally, jvm: JvmSnapshot, seconds: Double)

  private def warmUp(w: Workload, traced: Boolean): Unit = {
    val end = System.nanoTime() + (w.warmupSeconds * 1e9).toLong
    while (System.nanoTime() < end) w.step(traced)
  }

  /** Steps for `seconds`, every step traced or none, and on until the tail
    * percentile has enough samples beyond it.
    */
  def measure(w: Workload, seconds: Int, traced: Boolean): Outcome = {
    warmUp(w, traced)
    w.startMeasuring()
    val minSteps = Hist.samplesFor(TailP)
    val tally = new Tally
    val j0 = Jvm.snapshot(w.allThreads)
    val t0 = System.nanoTime()
    val end = t0 + seconds * 1000000000L
    var now = t0
    var chunkEnd = t0 + ChunkNs
    while (now < end || tally.hist.count < minSteps) {
      tally.add(w.step(traced), w.lastItems)
      now = System.nanoTime()
      if (now >= chunkEnd) { tally.endChunk(); chunkEnd = now + ChunkNs }
    }
    if (tally.chunks == 0) tally.endChunk()
    val jvm = Jvm.snapshot(w.allThreads) - j0
    Outcome(tally, jvm, (now - t0) / 1e9)
  }

  /** End-to-end metrics of an untraced run, in BENCHMARK.json order. */
  def endToEnd(o: Outcome, resident: Double): Seq[Metric] = {
    val h = o.steps.hist
    Seq(
      Metric("throughput_eps", o.steps.throughput, "events/s"),
      Metric("latency_p50_us", h.quantile(0.5) / 1e3, "us"),
      Metric("latency_p90_us", h.quantile(TailP) / 1e3, "us"),
      Metric("resident_bytes_per_item", resident, "B"),
    )
  }

  /** JVM metrics shared by every workload's traced run. The tracing
    * overhead needs an untraced process too, so `run.py` adds it.
    */
  def commonLayerMetrics(o: Outcome): Seq[Metric] = Seq(
    Metric("jvm.gc_count", o.jvm.gcCount.toDouble, "count"),
    Metric("jvm.gc_pause_ms_per_s", o.jvm.gcMs / (o.jvm.nanos / 1e9), "ms/s"),
    Metric("jvm.alloc_b_per_item", o.jvm.allocBytes / o.steps.items.toDouble, "B"),
    Metric("trace.traced_eps", o.steps.throughput, "events/s"),
  )
}
