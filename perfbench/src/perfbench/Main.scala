package perfbench

import java.nio.file.Paths

/** One benchmark process: set up a workload, then (in `run` mode) warm up,
  * measure, and print a report line `PERFBENCH_REPORT {json}`. It prints
  * `PERFBENCH_READY` when set-up ends, just before the first step; in
  * `setup` mode it stops there.
  *
  *   Main --workload citibike|ooo_bulk|stream_multikey --seed N --seconds S
  *        --trace 0|1 --mode run|setup --data EVENTS.parquet --work DIR --traces DIR
  */
object Main {
  val Workloads = Seq("citibike", "ooo_bulk", "stream_multikey")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val workload = opt("workload")
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toInt
    val trace = opt("trace") == "1"
    val setupOnly = opt("mode") == "setup"
    val work = Paths.get(opt("work"))

    val spanNames = workload match {
      case "citibike"        => CitiBike.SpanNames
      case "ooo_bulk"        => OooBulk.SpanNames
      case "stream_multikey" => StreamMultiKey.SpanNames
      case other             => sys.error(s"unknown workload $other; expected one of ${Workloads.mkString(", ")}")
    }
    val tracer = new Tracer(spanNames)
    val w: Workload = workload match {
      case "citibike"        => new CitiBike(seed, trace, tracer)
      case "ooo_bulk"        => new OooBulk(seed, trace, tracer)
      case "stream_multikey" => new StreamMultiKey(seed, opt("data"), work, tracer)
    }
    try {
      w.setup()
      println("PERFBENCH_READY")
      System.out.flush()
      if (setupOnly) Runtime.getRuntime.halt(0) // set-up is all this process measures
      else {
        val o = Runner.measure(w, seconds, trace)
        val metrics =
          if (!trace) Runner.endToEnd(o, w.residentBytesPerItem())
          else {
            tracer.write(Paths.get(opt("traces")).resolve(s"spans-$workload-seed$seed.csv"))
            w.layerMetrics(o) ++ Runner.commonLayerMetrics(o)
          }
        val h = o.steps.hist
        // higher percentiles where at least ten samples lie beyond them
        val tails = Seq("p99" -> 0.99, "p99.9" -> 0.999).collect {
          case (n, p) if h.count > 0 && Hist.tailOk(p, h.count) => s"latency_${n}_us" -> h.quantile(p) / 1e3
        }
        val samples = Seq(
          "steps" -> h.count,
          "throughput_chunks" -> o.steps.chunks,
          "steps_beyond_p90" -> Hist.beyond(Runner.TailP, h.count),
          "traced" -> trace,
          "measured_seconds" -> o.seconds,
        ) ++ tails
        val jvm = Seq(
          "alloc_bytes" -> o.jvm.allocBytes,
          "alloc_scope" -> (if (w.allThreads) "live threads" else "benchmark thread"),
          "gc_count" -> o.jvm.gcCount,
          "gc_pause_ms" -> o.jvm.gcMs,
        )
        val report = Seq(
          "attempted" -> w.checked,
          "failed" -> w.failed,
          "metrics" -> metrics.map(m => m.name -> Seq("value" -> m.value, "unit" -> m.unit)),
          "samples" -> samples,
          "timed_region" -> jvm,
          "traffic" -> w.traffic(),
          "env" -> Jvm.env(seed, seconds),
        )
        println("PERFBENCH_REPORT " + Json.write(report))
        System.out.flush()
        Runtime.getRuntime.halt(0) // skip the engine's shutdown; the work directory is discarded
      }
    } finally w.close()
  }
}

/** Minimal JSON writer: a Seq of pairs is an object, other Seqs are arrays. */
object Json {
  def write(v: Any): String = v match {
    case null                     => "null"
    case s: String                => quote(s)
    case b: Boolean               => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double                => d.toString
    case n: Int                   => n.toString
    case n: Long                  => n.toString
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) && kv.nonEmpty =>
      kv.map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Seq[_]               => xs.map(write).mkString("[", ",", "]")
    case other                    => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b.append("\\\"")
      case '\\' => b.append("\\\\")
      case c if c < ' ' => b.append(f"\\u${c.toInt}%04x")
      case c    => b.append(c)
    }
    b.append('"').toString
  }
}
