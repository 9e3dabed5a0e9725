package repro.core

import java.io.{BufferedWriter, File, FileWriter}
import scala.io.Source
import repro.nn.DMat

/** Layer-wise model signature files.
  *
  * The paper saves, next to the weights, a per-layer signature recording the
  * stage annotations (notably whether `aggregate` is partial-gatherable) so
  * the inference deployment needs no manual configuration. This is a plain
  * text serialization: one `layer` header line carrying the [[LayerSig]]
  * (plus GAT's `outPerHead` and `alpha`), followed by named weight matrices.
  * Loading checks every matrix shape against the header and the rebuilt
  * layer's signature against the header's.
  */
object ModelIO {

  def save(model: GnnModel, path: String): Unit = {
    val w = new BufferedWriter(new FileWriter(new File(path)))
    try {
      w.write(s"model multiLabel=${model.multiLabel} layers=${model.layers.size}\n")
      model.layers.foreach {
        case l @ SageLayer(ws, wn, b, _) =>
          w.write(s"layer ${sigFields(l.signature)}\n")
          writeMat(w, "wSelf", ws); writeMat(w, "wNbr", wn); writeMat(w, "bias", b)
        case g @ GatLayer(wm, aSrc, aDst, _, _, alpha) =>
          w.write(s"layer ${sigFields(g.signature)} outPerHead=${g.outPerHead} alpha=$alpha\n")
          wm.indices.foreach { k =>
            writeMat(w, s"w$k", wm(k))
            writeMat(w, s"aSrc$k", DMat.rowVec(aSrc(k)))
            writeMat(w, s"aDst$k", DMat.rowVec(aDst(k)))
          }
        case other => throw new IllegalArgumentException(s"cannot serialize ${other.getClass}")
      }
    } finally w.close()
  }

  /** The `key=value` form of a signature in a `layer` header line. */
  private def sigFields(s: LayerSig): String =
    s"kind=${s.kind} in=${s.inDim} out=${s.outDim} partial=${s.partialGather} " +
      s"act=${s.activation} heads=${s.heads} combine=${s.combine}"

  private def parseSig(h: Map[String, String]): LayerSig =
    LayerSig(h("kind"), h("in").toInt, h("out").toInt, h("partial").toBoolean, h("act"),
      h("heads").toInt, h("combine"))

  private def writeMat(w: BufferedWriter, name: String, m: DMat): Unit = {
    w.write(s"mat $name ${m.rows} ${m.cols}\n")
    w.write(m.a.map(java.lang.Double.toString).mkString(" "))
    w.write("\n")
  }

  def load(path: String): GnnModel = {
    val srcFile = Source.fromFile(path)
    try {
      val lines = srcFile.getLines()
      val head = kv(lines.next())
      val multiLabel = head("multiLabel").toBoolean
      val nLayers = head("layers").toInt
      val layers = (0 until nLayers).map { i =>
        val h = kv(lines.next())
        val sig = parseSig(h)
        def readMat(name: String, rows: Int, cols: Int): DMat = {
          val parts = lines.next().split(" ")
          require(parts.length == 4 && parts(0) == "mat" && parts(1) == name,
            s"layer $i: expected mat $name, got ${parts.mkString(" ")}")
          require(parts(2).toInt == rows && parts(3).toInt == cols,
            s"layer $i: matrix $name is ${parts(2)}x${parts(3)}, the header implies ${rows}x$cols")
          val data = lines.next().split(" ").map(_.toDouble)
          require(data.length == rows * cols,
            s"layer $i: matrix $name has ${data.length} values, ${rows}x$cols needs ${rows * cols}")
          new DMat(rows, cols, data)
        }
        val layer = sig.kind match {
          case "sage" =>
            SageLayer(readMat("wSelf", sig.inDim, sig.outDim), readMat("wNbr", sig.inDim, sig.outDim),
              readMat("bias", 1, sig.outDim), Act.of(sig.activation))
          case "gat" =>
            val oph = h("outPerHead").toInt
            val heads = (0 until sig.heads).map { k =>
              (readMat(s"w$k", sig.inDim, oph), readMat(s"aSrc$k", 1, oph).a, readMat(s"aDst$k", 1, oph).a)
            }
            GatLayer(heads.map(_._1).toArray, heads.map(_._2).toArray, heads.map(_._3).toArray,
              Act.of(sig.activation), sig.combine, h("alpha").toDouble)
          case other => throw new IllegalArgumentException(s"layer $i: unknown layer kind $other")
        }
        require(layer.signature == sig, s"layer $i: header $sig disagrees with its matrices (${layer.signature})")
        layer
      }
      GnnModel(layers, multiLabel)
    } finally srcFile.close()
  }

  private def kv(line: String): Map[String, String] =
    line.split(" ").drop(1).map { t =>
      val Array(k, v) = t.split("=", 2); k -> v
    }.toMap
}
