package perfbench

/** Latency histogram in nanoseconds: exact below 2048 ns, then buckets of
  * 1/1024 relative width, so a quantile is within 0.1% of the true sample.
  * Quantiles interpolate within their bucket, so a value is not snapped to
  * a bucket edge.
  */
final class Hist {
  import Hist._
  private val counts = new Array[Long](Exact + Sub * 54)
  private var n = 0L
  private var total = 0L
  private var maxV = 0L

  def add(v0: Long): Unit = {
    val v = math.max(v0, 0L)
    counts(index(v)) += 1
    n += 1
    total += v
    if (v > maxV) maxV = v
  }

  def count: Long = n
  def sum: Long = total
  def max: Long = maxV

  /** The `rank(p, n)`-th smallest sample, interpolated within its bucket. */
  def quantile(p: Double): Double = {
    require(n > 0, "no samples")
    val r = rank(p, n)
    var cum = 0L
    var i = 0
    while (cum + counts(i) < r) { cum += counts(i); i += 1 }
    val (lo, width) = bucket(i)
    lo + width * ((r - cum) - 0.5) / counts(i)
  }
}

object Hist {
  private val Exact = 2048
  private val Sub = 1024

  private def index(v: Long): Int =
    if (v < Exact) v.toInt
    else {
      val e = 63 - java.lang.Long.numberOfLeadingZeros(v) - 10 // v >> e in [1024, 2048)
      Exact + (e - 1) * Sub + ((v >> e).toInt - Sub)
    }

  private def bucket(i: Int): (Double, Double) =
    if (i < Exact) (i.toDouble, 1.0)
    else {
      val e = (i - Exact) / Sub + 1
      val mant = (i - Exact) % Sub + Sub
      ((mant.toLong << e).toDouble, (1L << e).toDouble)
    }

  /** 1-based rank of the p-quantile among n samples: ceil(p * n). */
  def rank(p: Double, n: Long): Long = math.max(1L, math.ceil(p * n - 1e-9).toLong)

  /** Samples strictly beyond the p-quantile. */
  def beyond(p: Double, n: Long): Long = n - rank(p, n)

  /** A tail percentile is reported only with at least ten samples beyond it. */
  val MinBeyond = 10L
  def tailOk(p: Double, n: Long): Boolean = beyond(p, n) >= MinBeyond

  /** Fewest samples for which `tailOk(p, _)` holds. */
  def samplesFor(p: Double): Long = {
    var n = MinBeyond
    while (!tailOk(p, n)) n += 1
    n
  }
}

object Stats {
  /** Quantile of a small sample by the same rank rule as [[Hist]]. */
  def quantileOf(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "no values")
    xs.sorted.apply((Hist.rank(p, xs.length) - 1).toInt)
  }
}
