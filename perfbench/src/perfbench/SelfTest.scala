package perfbench

import repro.bench.Workloads
import repro.core.{Monoid, Swag}
import repro.streaming.WindowAgg

/** Self-tests of the benchmark itself: the percentile rule, seeded inputs,
  * and that each output check fires on a wrong answer. Exits non-zero on
  * any failure.
  *
  *   python3 perfbench/run.py --selftest
  */
object SelfTest {
  private var failures = 0

  private def check(name: String)(cond: => Boolean): Unit = {
    val ok =
      try cond
      catch { case e: Throwable => println(s"  $e"); false }
    println(s"${if (ok) "ok  " else "FAIL"} $name")
    if (!ok) failures += 1
  }

  /** A Swag that skips one bulk evict in `every`. */
  final class SkipEvictSwag(inner: Swag[Double], every: Int) extends Swag[Double] {
    private var calls = 0
    def monoid: Monoid[Double] = inner.monoid
    def name: String = inner.name + "_skip_evict"
    def supportsOoo: Boolean = inner.supportsOoo
    def size: Int = inner.size
    def minTime: Option[Long] = inner.minTime
    def maxTime: Option[Long] = inner.maxTime
    def query(): Double = inner.query()
    def insert(t: Long, v: Double): Unit = inner.insert(t, v)
    def evict(): Unit = inner.evict()
    override def bulkEvict(t: Long): Unit = {
      calls += 1
      if (calls % every != 0) inner.bulkEvict(t)
    }
    override def bulkInsert(entries: IndexedSeq[(Long, Double)]): Unit = inner.bulkInsert(entries)
  }

  private val skipOneIn1000: Monoid[Double] => Swag[Double] =
    m => new SkipEvictSwag(Sut.newSwag(m), 1000)

  private def failedAfter(w: Workload, steps: Int): Long = {
    w.setup()
    var k = 0
    while (k < steps) { w.step(traced = k % 2 == 1); k += 1 }
    w.failed
  }

  private def citiBike(newSwag: Monoid[Double] => Swag[Double]) =
    new CitiBike(1, trace = true, new Tracer(CitiBike.SpanNames), newSwag)

  private def oooBulk(seed: Long, newSwag: Monoid[Double] => Swag[Double] = Sut.newSwag) =
    new OooBulk(seed, trace = true, new Tracer(OooBulk.SpanNames), newSwag)

  /** A workload whose steps take no time, to test the runner's stopping rule. */
  private final class Instant extends Workload {
    val warmupSeconds = 0.0
    val allThreads = false
    def setup(): Unit = ()
    def step(traced: Boolean): Long = 1L
    def startMeasuring(): Unit = ()
    def lastItems: Int = 1
    def checked: Long = 0
    def failed: Long = 0
    def residentBytesPerItem(): Double = 0
    def traffic(): Seq[(String, Any)] = Nil
    def layerMetrics(o: Runner.Outcome): Seq[Metric] = Nil
    def close(): Unit = ()
  }

  def main(args: Array[String]): Unit = {
    // the percentile rule: at least ten samples beyond a reported tail
    check("p99 is reported from 1000 samples, 10 beyond it") {
      Hist.samplesFor(0.99) == 1000 && Hist.beyond(0.99, 1000) == 10 && !Hist.tailOk(0.99, 999)
    }
    check("p90 is reported from 100 samples, 10 beyond it") {
      Hist.samplesFor(0.9) == 100 && Hist.beyond(0.9, 100) == 10 && !Hist.tailOk(0.9, 99)
    }
    check("a run shorter than the tail needs is extended") {
      val o = Runner.measure(new Instant, seconds = 0, traced = false)
      o.steps.hist.count == 100 && Hist.tailOk(Runner.TailP, o.steps.hist.count)
    }
    check("histogram quantiles are within 0.1% of the exact sample") {
      val h = new Hist
      val xs = (1 to 100000).map(i => (i * 7919L) % 100003 * 37)
      xs.foreach(h.add)
      val sorted = xs.sorted
      Seq(0.5, 0.9, 0.99).forall { p =>
        val exact = sorted((Hist.rank(p, xs.length) - 1).toInt).toDouble
        math.abs(h.quantile(p) - exact) <= exact * 1e-3
      }
    }

    // seeds: the same seed gives the same inputs, another seed other inputs
    check("citibike: same seed, same stream; other seed, other stream") {
      Workloads.citiBike(20000, 7) == Workloads.citiBike(20000, 7) &&
      Workloads.citiBike(20000, 7) != Workloads.citiBike(20000, 8)
    }
    check("ooo_bulk: same seed, same values; other seed, other values") {
      def digest(seed: Long) = { val w = oooBulk(seed); failedAfter(w, 3); w.windowSum }
      digest(7) == digest(7) && digest(7) != digest(8)
    }
    check("stream_multikey: same seed, same arrival order; other seed, other order") {
      val times = Array.tabulate(20000)(i => i * 30L)
      val a = StreamMultiKey.arrivalOrder(times, 7)
      a.sameElements(StreamMultiKey.arrivalOrder(times, 7)) &&
      !a.sameElements(StreamMultiKey.arrivalOrder(times, 8)) &&
      a.sorted.sameElements(times.indices)
    }

    // the output checks pass on b_fiba4 and fire on a broken Swag
    check("citibike: every answer of b_fiba4 matches the reference") {
      failedAfter(citiBike(Sut.newSwag), 300) == 0
    }
    check("citibike: check fires on a Swag that skips one bulk evict in 1000") {
      failedAfter(citiBike(skipOneIn1000), 300) > 0
    }
    check("ooo_bulk: every answer of b_fiba4 matches the reference") {
      failedAfter(oooBulk(1), 1100) == 0
    }
    check("ooo_bulk: check fires on a Swag that skips one bulk evict in 1000") {
      failedAfter(oooBulk(1, skipOneIn1000), 1100) > 0
    }
    check("stream_multikey: reference rows pass, corrupted rows fail") {
      val ref = new StreamRef(100L)
      val keys = Array(1L, 2L, 1L, 3L)
      val exp = ref.batch(keys, Array(10L, 20L, 150L, 5L), Array(1.0, 2.0, 4.0, 8.0), 0, keys.length)
      val rows = exp.values.toSeq
      val r1 = rows.find(_.key == 1L).get
      val others = rows.filterNot(_.key == 1L)
      exp(1L) == WindowAgg(1L, 150L, 4.0) &&
      StreamRef.check(exp, rows) == (3, 0) &&
      StreamRef.check(exp, others :+ r1.copy(agg = r1.agg + 1)) == (3, 1) &&
      StreamRef.check(exp, others :+ r1.copy(watermark = 149L)) == (3, 1) &&
      StreamRef.check(exp, others) == (3, 1) &&
      StreamRef.check(exp, rows :+ r1) == (3, 1) &&
      StreamRef.check(exp, rows :+ WindowAgg(9L, 0L, 0.0)) == (4, 1)
    }

    println(if (failures == 0) "selftest passed" else s"selftest: $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
