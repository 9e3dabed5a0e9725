package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelIOSpec extends AnyFunSuite {

  private def tmp(): String =
    java.nio.file.Files.createTempFile("model", ".txt").toString

  test("SAGE model round-trips exactly") {
    val m = Models.sage(Seq(5, 4, 3), seed = 11)
    val path = tmp()
    ModelIO.save(m, path)
    val m2 = ModelIO.load(path)
    assert(m2.signatures == m.signatures)
    val g = TinyGraphs.random(12, 40, 5, 1)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, m2)) == 0.0)
  }

  test("GAT model round-trips exactly") {
    val m = Models.gat(Seq(5, 4, 3), heads = 2, seed = 12)
    val path = tmp()
    ModelIO.save(m, path)
    val m2 = ModelIO.load(path)
    assert(m2.signatures == m.signatures)
    val g = TinyGraphs.random(12, 40, 5, 2)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, m2)) == 0.0)
  }

  test("multiLabel flag survives the round trip") {
    val m = GnnModel(Models.sage(Seq(3, 2)).layers, multiLabel = true)
    val path = tmp()
    ModelIO.save(m, path)
    assert(ModelIO.load(path).multiLabel)
  }

  test("signature records the paper's partial-gather annotation per layer") {
    val m = GnnModel(Models.sage(Seq(4, 4)).layers ++
      Models.gat(Seq(4, 3)).layers)
    val sigs = m.signatures
    assert(sigs.map(_.partialGather) == Seq(true, false))
    val path = tmp()
    ModelIO.save(m, path)
    assert(ModelIO.load(path).signatures == sigs)
  }

  test("mixed-stack model round-trips with same forward values") {
    val m = GnnModel(Models.sage(Seq(6, 4)).layers ++ Models.gat(Seq(4, 3), heads = 1).layers)
    val path = tmp()
    ModelIO.save(m, path)
    val g = TinyGraphs.random(10, 25, 6, 3)
    assert(LocalInference.forward(g, m).maxAbsDiff(LocalInference.forward(g, ModelIO.load(path))) == 0.0)
  }

  test("loading a corrupt file fails loudly") {
    val path = tmp()
    java.nio.file.Files.write(java.nio.file.Paths.get(path),
      "model multiLabel=false layers=1\nlayer kind=bogus\n".getBytes)
    intercept[Exception](ModelIO.load(path))
  }

  test("a header that disagrees with its matrices fails with the layer and matrix named") {
    val path = tmp()
    ModelIO.save(Models.sage(Seq(5, 4, 3), seed = 13), path)
    val lines = scala.util.Using.resource(scala.io.Source.fromFile(path))(_.getLines().toVector)
    def loadEdited(edit: Vector[String] => Vector[String]): String = {
      val bad = tmp()
      java.nio.file.Files.write(java.nio.file.Paths.get(bad), edit(lines).mkString("\n").getBytes)
      intercept[IllegalArgumentException](ModelIO.load(bad)).getMessage
    }
    val layer1 = lines.lastIndexWhere(_.startsWith("layer "))
    val wrongIn = loadEdited(ls => ls.updated(layer1, ls(layer1).replace(" in=4 ", " in=5 ")))
    assert(wrongIn.contains("layer 1") && wrongIn.contains("wSelf"), wrongIn)

    val wNbrRow = lines.indexWhere(_.startsWith("mat wNbr ")) + 1
    val truncated = loadEdited(ls => ls.updated(wNbrRow, ls(wNbrRow).split(" ").init.mkString(" ")))
    assert(truncated.contains("layer 0") && truncated.contains("wNbr"), truncated)
  }
}
