package perfbench

import repro.streaming.WindowAgg

/** Independent reference for a time-based window: a binary min-heap of
  * (time, value) and a running sum. Values are integer-valued Doubles, so
  * the sum is exact in any order and must equal the Swag's query exactly.
  */
final class WindowRef {
  private var times = new Array[Long](64)
  private var values = new Array[Double](64)
  private var n = 0
  var sum = 0.0

  def size: Int = n

  def insert(t: Long, v: Double): Unit = {
    if (n == times.length) {
      times = java.util.Arrays.copyOf(times, 2 * n)
      values = java.util.Arrays.copyOf(values, 2 * n)
    }
    var i = n
    n += 1
    while (i > 0 && times((i - 1) / 2) > t) {
      val p = (i - 1) / 2
      times(i) = times(p); values(i) = values(p); i = p
    }
    times(i) = t; values(i) = v
    sum += v
  }

  /** Remove every entry with time <= cut; returns how many were removed. */
  def evictUpTo(cut: Long): Int = {
    var k = 0
    while (n > 0 && times(0) <= cut) {
      sum -= values(0)
      n -= 1
      val t = times(n)
      val v = values(n)
      var i = 0
      var done = false
      while (!done) {
        var c = 2 * i + 1
        if (c >= n) done = true
        else {
          if (c + 1 < n && times(c + 1) < times(c)) c += 1
          if (times(c) < t) { times(i) = times(c); values(i) = values(c); i = c }
          else done = true
        }
      }
      times(i) = t; values(i) = v
      k += 1
    }
    k
  }
}

/** Reference for the streaming operator: per key, the window (wm - len, wm]
  * over everything that key has received, where wm is the key's largest
  * event time so far. One result per key present in a batch.
  */
final class StreamRef(windowLen: Long) {
  private val windows = scala.collection.mutable.HashMap.empty[Long, (WindowRef, Array[Long])]

  def liveEntries: Long = windows.valuesIterator.map(_._1.size.toLong).sum

  /** Apply one batch; returns the expected row per key touched. */
  def batch(keys: Array[Long], times: Array[Long], values: Array[Double],
            from: Int, until: Int): Map[Long, WindowAgg] = {
    val touched = scala.collection.mutable.LinkedHashSet.empty[Long]
    var i = from
    while (i < until) {
      val (w, wm) = windows.getOrElseUpdate(keys(i), (new WindowRef, Array(Long.MinValue)))
      w.insert(times(i), values(i))
      if (times(i) > wm(0)) wm(0) = times(i)
      touched += keys(i)
      i += 1
    }
    touched.iterator.map { k =>
      val (w, wm) = windows(k)
      w.evictUpTo(wm(0) - windowLen)
      k -> WindowAgg(k, wm(0), w.sum)
    }.toMap
  }
}

object StreamRef {
  /** Compare one batch's output rows with the expected rows.
    * Returns (results checked, results wrong): a missing, duplicated,
    * unexpected or differing row counts as wrong.
    */
  def check(expected: Map[Long, WindowAgg], rows: Seq[WindowAgg]): (Int, Int) = {
    val byKey = rows.groupBy(_.key)
    val extra = byKey.keysIterator.count(k => !expected.contains(k))
    val wrong = expected.count { case (k, e) =>
      byKey.get(k) match {
        case Some(Seq(r)) => r.watermark != e.watermark || r.agg != e.agg
        case _            => true
      }
    }
    (expected.size + extra, wrong + extra)
  }
}
