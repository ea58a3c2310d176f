package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryProgress}
import repro.streaming.{Event, WindowAgg}
import scala.util.Random

/** `stream_multikey`: the streaming operator over the events table, one
  * key per `user_id` and a 1-day window. The file arrives in time order, so
  * lateness is injected from the seed. One step is one fixed-size
  * micro-batch: `addData` then `processAllAvailable`. When the input runs
  * out it is replayed, shifted past the window.
  */
final class StreamMultiKey(seed: Long, dataPath: String, workDir: java.nio.file.Path,
                           tracer: Tracer) extends Workload {
  import StreamMultiKey._
  val warmupSeconds = 4.0
  val allThreads = true

  private var spark: SparkSession = _
  private var input: MemoryStream[Event] = _
  private var query: StreamingQuery = _
  private val runId = java.util.UUID.randomUUID().toString
  private val outputs = new ConcurrentHashMap[Long, Array[WindowAgg]]()
  private var keys: Array[Long] = _
  private var times: Array[Long] = _
  private var values: Array[Double] = _
  private var span = 0L          // event-time shift per replay of the input
  private var next = 0L          // events sent so far
  private val ref = new StreamRef(WindowLen)
  private var batchId = 0L
  private var nChecked = 0L
  private var nFailed = 0L
  private val tracedBatches = scala.collection.mutable.ArrayBuffer.empty[Long]
  private val keysPerBatch = new Hist
  private var rowsOut = new Hist // output rows per traced batch
  private var oooShare = 0.0
  private var lateShare = 0.0

  private val S = tracer.id("step")
  private val Add = tracer.id("spark.add_data")
  private val Proc = tracer.id("spark.process")

  def setup(): Unit = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("local").toString)
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.session.timeZone", "UTC")
      .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    loadInput()
    val session = spark
    import session.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = session.sqlContext
    input = MemoryStream[Event]
    val sink: (Dataset[WindowAgg], Long) => Unit = (ds, id) => outputs.put(id, ds.collect())
    query = Sut.streamAggregate(input.toDS(), WindowLen, runId)
      .writeStream
      .outputMode("update")
      .option("checkpointLocation", workDir.resolve("checkpoint").toString)
      .foreachBatch(sink)
      .start()
  }

  /** Events in arrival order: file order, with seeded lateness. */
  private def loadInput(): Unit = {
    val rows = spark.read.parquet(dataPath)
      .selectExpr("event_id", "user_id", "CAST(unix_micros(CAST(ts AS TIMESTAMP)) DIV 1000000 AS BIGINT) AS t",
        "CAST(round(value * 100) AS DOUBLE) AS v")
      .orderBy("event_id")
      .collect()
    val arrival = arrivalOrder(rows.map(_.getLong(2)), seed)
    keys = arrival.map(i => rows(i).getLong(1))
    times = arrival.map(i => rows(i).getLong(2))
    values = arrival.map(i => rows(i).getDouble(3))
    span = times.max - times.min + 2 * WindowLen
    // traffic: out of order within the key, and arriving behind the window
    val maxByKey = scala.collection.mutable.HashMap.empty[Long, Long]
    var ooo = 0
    var late = 0
    var i = 0
    while (i < keys.length) {
      val m = maxByKey.getOrElse(keys(i), Long.MinValue)
      if (m != Long.MinValue && times(i) < m) ooo += 1
      if (m != Long.MinValue && times(i) <= m - WindowLen) late += 1
      maxByKey(keys(i)) = math.max(m, times(i))
      i += 1
    }
    oooShare = ooo.toDouble / keys.length
    lateShare = late.toDouble / keys.length
  }

  def step(traced: Boolean): Long = {
    // inputs for this batch (untimed)
    val n = keys.length
    val bk = new Array[Long](BatchSize)
    val bt = new Array[Long](BatchSize)
    val bv = new Array[Double](BatchSize)
    val events = new Array[Event](BatchSize)
    var k = 0
    while (k < BatchSize) {
      val j = ((next + k) % n).toInt
      bk(k) = keys(j)
      bt(k) = times(j) + ((next + k) / n) * span
      bv(k) = values(j)
      events(k) = Sut.event(bk(k), bt(k), bv(k))
      k += 1
    }
    next += BatchSize
    val batch = events.toSeq
    val t0 = System.nanoTime()
    var t1 = 0L
    if (!traced) {
      input.addData(batch)
      query.processAllAvailable()
      t1 = System.nanoTime()
    } else {
      val s = tracer.open(S, batchId, -1, t0)
      input.addData(batch)
      val s1 = System.nanoTime()
      tracer.span(Add, batchId, s, t0, s1)
      query.processAllAvailable()
      t1 = System.nanoTime()
      tracer.span(Proc, batchId, s, s1, t1)
      tracer.close(s, S, t0, t1)
      tracedBatches += batchId
    }
    // check (untimed)
    val expected = ref.batch(bk, bt, bv, 0, BatchSize)
    keysPerBatch.add(expected.size)
    val rows = Option(outputs.remove(batchId)).map(_.toSeq).getOrElse(Seq.empty)
    if (traced) rowsOut.add(rows.length)
    val (c, f) = StreamRef.check(expected, rows)
    nChecked += c
    nFailed += f
    batchId += 1
    t1 - t0
  }

  def startMeasuring(): Unit = {
    tracer.reset()
    tracedBatches.clear()
    rowsOut = new Hist
  }

  def lastItems: Int = BatchSize
  def checked: Long = nChecked
  def failed: Long = nFailed

  private def progress(): Map[Long, StreamingQueryProgress] = {
    // progress of the last batch is posted just after processAllAvailable returns
    val deadline = System.nanoTime() + 5000000000L
    var ps = query.recentProgress
    while (!ps.exists(_.batchId == batchId - 1) && System.nanoTime() < deadline) {
      Thread.sleep(10)
      ps = query.recentProgress
    }
    ps.map(p => p.batchId -> p).toMap
  }

  /** State-store memory over live window entries after the last batch. */
  def residentBytesPerItem(): Double = {
    val last = progress().get(batchId - 1)
    val bytes = last.map(_.stateOperators.map(_.memoryUsedBytes).sum).getOrElse(0L)
    bytes.toDouble / ref.liveEntries
  }

  def traffic(): Seq[(String, Any)] = Seq(
    "events" -> keys.length,
    "keys" -> keys.distinct.length,
    "batch_events" -> BatchSize,
    "ooo_share" -> oooShare,
    "behind_window_share" -> lateShare,
    "keys_per_batch_p50" -> keysPerBatch.quantile(0.5),
    "keys_per_batch_max" -> keysPerBatch.max,
    "window_entries" -> ref.liveEntries,
  )

  def layerMetrics(o: Runner.Outcome): Seq[Metric] = {
    val ps = progress()
    val traced = tracedBatches.flatMap(ps.get).toSeq
    def med(f: StreamingQueryProgress => Double): Double =
      if (traced.isEmpty) 0.0 else Stats.quantileOf(traced.map(f), 0.5)
    def dur(p: StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    def state(p: StreamingQueryProgress, f: org.apache.spark.sql.streaming.StateOperatorProgress => Long): Double =
      p.stateOperators.map(f).sum.toDouble
    val n = o.steps.items.toDouble
    val addBatchNs = traced.map(dur(_, "addBatch")).sum * 1e6
    val stateNs = traced.map(p => state(p, _.allUpdatesTimeMs) + state(p, _.commitTimeMs)).sum * 1e6
    val sparkNs = tracer.totalNs("spark.add_data") + tracer.totalNs("spark.process")
    val last = traced.lastOption
    Seq(
      Metric("spark.trigger_ms_p50", med(dur(_, "triggerExecution")), "ms"),
      Metric("spark.add_batch_ms_p50", med(dur(_, "addBatch")), "ms"),
      Metric("spark.overhead_ms_p50", med(p => dur(p, "triggerExecution") - dur(p, "addBatch")), "ms"),
      Metric("state.all_updates_ms_p50", med(state(_, _.allUpdatesTimeMs)), "ms"),
      Metric("state.commit_ms_p50", med(state(_, _.commitTimeMs)), "ms"),
      Metric("state.memory_bytes", last.map(state(_, _.memoryUsedBytes)).getOrElse(0.0), "B"),
      Metric("state.rows_total", last.map(state(_, _.numRowsTotal)).getOrElse(0.0), "count"),
      Metric("stream.rows_out_per_batch", rowsOut.quantile(0.5), "count"),
      Metric("self.harness_ns_per_item", (tracer.totalNs("step") - sparkNs) / n, "ns"),
      Metric("self.spark_ns_per_item", (sparkNs - addBatchNs) / n, "ns"),
      Metric("self.state_ns_per_item", stateNs / n, "ns"),
    )
  }

  def close(): Unit = {
    try { if (query != null) query.stop() }
    finally {
      Sut.clearStreamCache(runId)
      if (spark != null) spark.stop()
    }
  }
}

object StreamMultiKey {
  val SpanNames = Seq("step", "spark.add_data", "spark.process")
  val WindowLen: Long = 86400L
  val BatchSize = 200

  /** Arrival order of events given in time order. Each event is delayed by
    * the lateness draw of `repro.bench.Workloads.citiBike` (85% punctual,
    * 13% late by under 120 s, 2% on a Pareto tail capped at one day), which
    * is shaped after the Citi Bike lateness of the paper's Fig 15.
    */
  def arrivalOrder(times: Array[Long], seed: Long): Array[Int] = {
    val rnd = new Random(seed)
    val due = times.map { t =>
      val u = rnd.nextDouble()
      val lateness =
        if (u < 0.85) 0.0
        else if (u < 0.98) rnd.nextInt(120).toDouble
        else math.min(WindowLen.toDouble, 30.0 * math.pow(1.0 - rnd.nextDouble(), -1.2))
      t + lateness.toLong
    }
    times.indices.sortBy(due(_)).toArray
  }
}
