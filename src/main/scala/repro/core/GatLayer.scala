package repro.core

import repro.nn.DMat

/** Multi-head GAT convolution in the GAS abstraction (inference form).
  *
  * Attention breaks the commutative/associative rule, so the signature
  * carries `partialGather = false`: `aggregate` merely *unions* the
  * in-messages and the real reduce (softmax attention + weighted sum) runs
  * in `apply_node` — exactly the paper's Fig. 3 `@Gather(partial=False)`
  * GATConv.
  *
  * The out-message payload per head is `[W_h·h, a_src·W_h·h]` so the
  * receiver can score each in-message against its own `a_dst·W_h·h` without
  * a second round trip. A self-message is appended in `apply_node`
  * (equivalent to the standard GAT self-loop).
  */
final case class GatLayer(w: Array[DMat], aSrc: Array[Array[Double]], aDst: Array[Array[Double]],
                          act: Act, combine: String, leakyAlpha: Double = 0.2) extends GasLayer {
  require(w.nonEmpty && w.length == aSrc.length && w.length == aDst.length, "GAT head arity mismatch")
  require(combine == "concat" || combine == "mean", s"bad combine $combine")
  val heads: Int = w.length
  val outPerHead: Int = w(0).cols
  require(aSrc.forall(_.length == outPerHead) && aDst.forall(_.length == outPerHead), "GAT attention vector dims")

  def inDim: Int = w(0).rows
  def outDim: Int = if (combine == "concat") heads * outPerHead else outPerHead
  def partialGather: Boolean = false

  /** Per-head slot width inside the payload: Wh (outPerHead) + src score (1). */
  private val slot = outPerHead + 1

  def scatterPayload(h: Array[Double]): Array[Double] = {
    val out = new Array[Double](heads * slot)
    var k = 0
    while (k < heads) {
      val wh = VecOps.vecMat(h, w(k))
      System.arraycopy(wh, 0, out, k * slot, outPerHead)
      out(k * slot + outPerHead) = VecOps.dot(wh, aSrc(k))
      k += 1
    }
    out
  }

  def applyEdge(payload: Array[Double], w: Double): Array[Double] = payload

  /** The edge weight plays no part in attention, so the union drops it. */
  def initAgg(msg: Array[Double], w: Double): Agg = Unioned(msg :: Nil)

  private def lrelu(x: Double): Double = if (x > 0) x else leakyAlpha * x

  def applyNode(h: Array[Double], agg: Agg): Array[Double] = {
    val inMsgs: List[Array[Double]] = agg match {
      case Unioned(ms) => ms
      case EmptyAgg    => Nil
      case other       => throw new IllegalStateException(s"GAT cannot consume ${other.getClass.getSimpleName}")
    }
    val selfPayload = scatterPayload(h)
    val all = selfPayload :: inMsgs
    val m = all.length
    val perHead = Array.ofDim[Double](heads, outPerHead)
    var k = 0
    while (k < heads) {
      // own transformed state for this head sits in the self payload
      val whSelf = new Array[Double](outPerHead)
      System.arraycopy(selfPayload, k * slot, whSelf, 0, outPerHead)
      val sDst = VecOps.dot(whSelf, aDst(k))
      // softmax over logits lrelu(sSrc_msg + sDst)
      val logits = new Array[Double](m)
      var i = 0
      all.foreach { p => logits(i) = lrelu(p(k * slot + outPerHead) + sDst); i += 1 }
      var mx = Double.NegativeInfinity
      i = 0
      while (i < m) { if (logits(i) > mx) mx = logits(i); i += 1 }
      var den = 0.0
      i = 0
      while (i < m) { logits(i) = math.exp(logits(i) - mx); den += logits(i); i += 1 }
      val acc = perHead(k)
      i = 0
      all.foreach { p =>
        val alpha = logits(i) / den
        var j = 0
        while (j < outPerHead) { acc(j) += alpha * p(k * slot + j); j += 1 }
        i += 1
      }
      k += 1
    }
    val combined =
      if (combine == "concat") {
        val out = new Array[Double](heads * outPerHead)
        var kk = 0
        while (kk < heads) { System.arraycopy(perHead(kk), 0, out, kk * outPerHead, outPerHead); kk += 1 }
        out
      } else {
        val out = new Array[Double](outPerHead)
        var kk = 0
        while (kk < heads) { VecOps.addInto(out, perHead(kk), 1.0 / heads); kk += 1 }
        out
      }
    act(combined)
  }

  def signature: LayerSig = LayerSig("gat", inDim, outDim, partialGather, act.name, heads, combine)
}
