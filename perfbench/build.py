"""Compile the program and the benchmark into one jar.

The benchmark compiles the repository's main sources (``src/main/scala``)
together with its own sources (``perfbench/src``) with the Scala compiler
that ships in the Spark distribution's ``jars`` directory, so it needs no
build server, no dependency resolution and no writes outside the checkout.
A stamp over every source file skips the compile when nothing changed.

    python3 perfbench/build.py        # prints the runtime classpath
"""

import fcntl
import glob
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
# Class-data archive of the classes a run loads (see run.py); stale after a build.
ARCHIVE = os.path.join(OUT, "classes.jsa")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]


class BuildError(Exception):
    pass


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME/jars, or the one
    next to the ``spark-submit`` found on PATH."""
    homes = []
    if os.environ.get("SPARK_HOME"):
        homes.append(os.environ["SPARK_HOME"])
    submit = shutil.which("spark-submit")
    if submit:
        homes.append(os.path.dirname(os.path.dirname(os.path.realpath(submit))))
    for home in homes:
        jars = os.path.join(home, "jars")
        if glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler found "
                     "(set SPARK_HOME)")


def sources():
    files = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError("missing source directory " + os.path.relpath(d, ROOT))
        for dirpath, _, names in os.walk(d):
            files += [os.path.join(dirpath, f) for f in names if f.endswith(".scala")]
    return sorted(files)


def build():
    """Compile if needed; return the runtime classpath (a list of jars)."""
    jars = spark_jars()
    srcs = sources()
    h = hashlib.sha256(jars.encode())
    for f in srcs:
        h.update(os.path.relpath(f, ROOT).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    stamp = h.hexdigest()
    jar = os.path.join(OUT, "perfbench.jar")
    stamp_file = os.path.join(OUT, "stamp")
    # Explicit jars, not a wildcard: the class-data archive run.py keeps
    # requires a classpath of jar files.
    cp = [jar] + sorted(glob.glob(os.path.join(jars, "*.jar")))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if os.path.exists(jar) and os.path.exists(stamp_file):
            with open(stamp_file) as fh:
                if fh.read() == stamp:
                    return cp
        tmp = os.path.join(OUT, "classes.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        argfile = os.path.join(OUT, "sources.txt")
        with open(argfile, "w") as fh:
            fh.write("\n".join(srcs) + "\n")
        cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
               "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp, "@" + argfile]
        print("[build] compiling %d sources" % len(srcs), file=sys.stderr)
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BuildError("scalac failed with exit code %d" % r.returncode)
        with zipfile.ZipFile(jar + ".tmp", "w") as z:
            for dirpath, _, names in os.walk(tmp):
                for f in sorted(names):
                    z.write(os.path.join(dirpath, f), os.path.relpath(os.path.join(dirpath, f), tmp))
        shutil.rmtree(tmp)
        os.replace(jar + ".tmp", jar)
        for stale in (stamp_file, ARCHIVE):
            if os.path.exists(stale):
                os.remove(stale)
        with open(stamp_file, "w") as fh:
            fh.write(stamp)
    return cp


if __name__ == "__main__":
    try:
        print(os.pathsep.join(build()))
    except BuildError as e:
        print("[build] " + str(e), file=sys.stderr)
        sys.exit(2)
