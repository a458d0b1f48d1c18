"""DDS benchmark: CoreApprox and CoreExact on the production Spark engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload approx-pl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload exact-pl --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --selftest

The first call compiles the program (src/main/scala) and the benchmark
(perfbench/src) into .bench_build/perfbench; later calls reuse the jar
until a source changes. The first run after a build also writes a
class-data archive of the classes it loaded, which later runs map to start
the JVM and Spark faster. One JVM with a fixed heap runs the workload with
Spark in local mode; its last result line is the result JSON, which this
script checks and prints last. Traced runs write their spans to
.bench_build/perfbench/out/spans-<workload>-seed<seed>.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

HEAP = "3g"
JVM_TIMEOUT_S = 170

# Module access Spark needs on Java 17 (what spark-submit adds itself).
JAVA_OPENS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="Spark local threads (default: min(4, nproc))")
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")

    try:
        cp = build.build()
    except build.BuildError as e:
        print("[perfbench] build failed: %s" % e, file=sys.stderr)
        return 2

    out = os.path.join(build.OUT, "out")
    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    archive = ("-XX:SharedArchiveFile=" if os.path.exists(build.ARCHIVE)
               else "-XX:ArchiveClassesAtExit=") + build.ARCHIVE
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-Xss8m", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
            archive, "-Xlog:disable", "-Xlog:all=error:stderr"] + JAVA_OPENS +
           ["-cp", os.pathsep.join(cp), "perfbench.Bench", "--out", out])
    if a.selftest:
        cmd += ["--selftest"]
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
    if a.threads:
        cmd += ["--threads", str(a.threads)]

    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out, "spark-local"))
    try:
        p = subprocess.run(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=None if a.selftest else JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        print("[perfbench] timed out after %d s" % JVM_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = p.stdout.rstrip("\n").split("\n")
    if a.selftest:
        print("\n".join(lines))
        return p.returncode
    result = None
    for i in range(len(lines) - 1, -1, -1):
        if lines[i].startswith('{"correct"'):
            result = json.loads(lines.pop(i))
            break
    print("\n".join(lines))
    if result is None:
        print("[perfbench] no result line (exit code %d)" % p.returncode, file=sys.stderr)
        return p.returncode or 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
