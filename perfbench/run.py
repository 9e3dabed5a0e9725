#!/usr/bin/env python3
"""Build and run the full-graph inference benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload powerlaw-in --seed 1 --seconds 30 --trace 0

The first run compiles the repository's main sources together with the
benchmark's own (perfbench/src) using the Scala compiler shipped in
$SPARK_HOME/jars, into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Later runs reuse the classes while the sources are
unchanged. The last line of standard output is the result object.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
WORKLOADS = ("mag-uniform", "powerlaw-in", "powerlaw-out")
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890
# A run is one cold pass per pipeline, so it is JIT-bound: C1 alone compiles
# quickly and repeatably; a fixed heap, the parallel collector and a large
# initial metaspace keep collections out of the way.
# -UsePerfData keeps the JVM from writing its counters file under /tmp.
JVM_FLAGS = ["-Xms4g", "-Xmx4g", "-XX:+UseParallelGC", "-XX:TieredStopAtLevel=1",
             "-XX:MetaspaceSize=512m", "-XX:-UsePerfData"]

# Packages Spark reaches into reflectively; spark-submit opens the same ones.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    if not MAIN_SOURCES.is_dir():
        fail(f"no program sources at {MAIN_SOURCES.relative_to(ROOT)}; run from a full checkout")
    srcs = sorted(MAIN_SOURCES.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    if not srcs:
        fail("no Scala sources found")
    return srcs


def spark_jars():
    """The jars of the Spark install: $SPARK_HOME, else the first spark-submit
    on PATH that sits in an install holding a Scala compiler."""
    homes = [Path(os.environ["SPARK_HOME"])] if os.environ.get("SPARK_HOME") else [
        (Path(d) / "spark-submit").resolve().parent.parent
        for d in os.environ.get("PATH", "").split(os.pathsep) if (Path(d) / "spark-submit").is_file()]
    for home in homes:
        jars = sorted((home / "jars").glob("*.jar"))
        if any(j.name.startswith("scala-compiler-") for j in jars):
            return jars
    fail("no Spark install with a Scala compiler in its jars; set SPARK_HOME")


def build(out, srcs, jars):
    """Compile into out/classes unless the stamp says the sources are unchanged."""
    h = hashlib.sha256()
    for f in srcs:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    for j in jars:
        h.update(j.name.encode() + b"\0")
    stamp = h.hexdigest()
    classes, stamp_file = out / "classes", out / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return stamp, False
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = out / "scalac.args"
    argfile.write_text("\n".join(str(f) for f in srcs) + "\n")
    cp = os.pathsep.join(str(j) for j in jars)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    t0 = time.time()
    subprocess.run(
        ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
         "-d", str(tmp), "-classpath", cp, f"@{argfile}"],
        check=True, stdout=sys.stderr, timeout=BUILD_RUN_LIMIT_S - 60)
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    print(f"perfbench: compiled in {time.time() - t0:.1f} s", file=sys.stderr)
    return stamp, True


def revision(stamp):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return f"{sha or 'no-git'} src-sha256:{stamp[:16]}"


def main():
    t0 = time.time()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    srcs, jars = sources(), spark_jars()
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    try:
        stamp, built = build(out, srcs, jars)
    except subprocess.CalledProcessError as e:
        fail(f"build failed: the compiler exited with {e.returncode}")
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {type(e).__name__}")
    (out / "tmp").mkdir(exist_ok=True)

    cmd = ["java", *JVM_FLAGS, *JVM_OPENS,
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           "-cp", os.pathsep.join([str(out / "classes")] + [str(j) for j in jars]),
           "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(out), "--cores", str(len(os.sched_getaffinity(0))),
           "--rev", revision(stamp)]
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.time() - t0)
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(limit, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded its time limit and was stopped")
    sys.exit(code)


if __name__ == "__main__":
    main()
