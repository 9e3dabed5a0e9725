package repro.core

import repro.nn.DMat

/** GraphSAGE convolution in the GAS abstraction (inference form).
  *
  * Reduce = weighted mean over in-messages — commutative + associative, so
  * the signature carries `partialGather = true` and backends may combine on
  * the sender side (the paper's Fig. 3 `@Gather(partial=True)` case).
  *
  * apply_node: `act(h·Wself + mean·Wnbr + bias)` with `mean = Σ w·h_u / Σ w`
  * (zero when the vertex has no in-edges).
  */
final case class SageLayer(wSelf: DMat, wNbr: DMat, bias: DMat, act: Act) extends GasLayer {
  require(wSelf.rows == wNbr.rows && wSelf.cols == wNbr.cols, "SAGE weight shape mismatch")
  require(bias.rows == 1 && bias.cols == wSelf.cols, "SAGE bias shape mismatch")

  def inDim: Int = wSelf.rows
  def outDim: Int = wSelf.cols
  def partialGather: Boolean = true

  def scatterPayload(h: Array[Double]): Array[Double] = h

  def applyEdge(payload: Array[Double], w: Double): Array[Double] =
    if (w == 1.0) payload else payload.map(_ * w)

  def initAgg(msg: Array[Double], w: Double): Agg = Pooled(msg, w)

  def applyNode(h: Array[Double], agg: Agg): Array[Double] = {
    val mean = agg match {
      case Pooled(sum, wsum) => if (wsum == 0.0) new Array[Double](inDim) else sum.map(_ / wsum)
      case EmptyAgg          => new Array[Double](inDim)
      case other             => throw new IllegalStateException(s"SAGE cannot consume ${other.getClass.getSimpleName}")
    }
    val out = VecOps.vecMat(h, wSelf)
    VecOps.addInto(out, VecOps.vecMat(mean, wNbr))
    VecOps.addInto(out, bias.a)
    act(out)
  }

  def signature: LayerSig = LayerSig("sage", inDim, outDim, partialGather, act.name)
}
