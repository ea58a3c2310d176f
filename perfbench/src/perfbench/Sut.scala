package perfbench

import org.apache.spark.sql.Dataset
import repro.core.{Monoid, Swag}
import repro.core.Monoids.SumD
import repro.core.fiba.BFiba
import repro.streaming.{Event, FibaStreaming, WindowAgg}
import scala.collection.immutable.ArraySeq

/** Every call the benchmark makes into the system under test: b_fiba4
  * with the sum monoid, as a library and as the streaming operator. An API
  * change touches this file only.
  */
object Sut {
  val Algo = "b_fiba4"
  val MonoidName = "sum"
  val Sum: Monoid[Double] = SumD

  def newSwag(monoid: Monoid[Double]): Swag[Double] = new BFiba[Double](4, monoid)

  /** The Swag's bulk input type, built from the generated arrays. */
  def toBulk(times: Array[Long], values: Array[Double], len: Int): IndexedSeq[(Long, Double)] = {
    val out = new Array[(Long, Double)](len)
    var i = 0
    while (i < len) { out(i) = (times(i), values(i)); i += 1 }
    ArraySeq.unsafeWrapArray(out)
  }

  /** The streaming operator in its restart-safe configuration. */
  def streamAggregate(events: Dataset[Event], windowLen: Long, runId: String): Dataset[WindowAgg] =
    FibaStreaming.aggregate(events, windowLen, Algo, MonoidName, runId, fullState = true)

  def clearStreamCache(runId: String): Unit = FibaStreaming.clearCache(runId)

  def event(key: Long, time: Long, value: Double): Event = Event(key, time, value)
}
