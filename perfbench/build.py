#!/usr/bin/env python3
"""Build file of the benchmark: compiles the program (src/main/scala) and
the benchmark (perfbench/src) into .bench_build/perfbench/classes with the
Scala compiler that ships in the Spark distribution's jars directory.

Run from the root of a checkout:  python3 perfbench/build.py
A build is skipped when the sources hash to the stamp of the last one.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(".bench_build", "perfbench")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        sys.exit("build: SPARK_HOME is not set")
    return os.path.join(home, "jars")


def sources():
    program = sorted(glob.glob(os.path.join("src", "main", "scala", "**", "*.scala"), recursive=True))
    if not program:
        sys.exit("build: no program sources under src/main/scala; run from the root of a checkout")
    return program + sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Returns (classes directory, source hash); exits non-zero on failure."""
    files = sources()
    digest = source_hash(files)
    classes = os.path.join(OUT, "classes")
    stamp = os.path.join(OUT, "stamp")
    if os.path.exists(stamp) and open(stamp).read() == digest:
        return classes, digest
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(classes)
    jars = spark_jars()
    compiler = [glob.glob(os.path.join(jars, f"scala-{part}-2.*.jar")) for part in ("compiler", "library", "reflect")]
    if not all(compiler):
        sys.exit(f"build: no Scala compiler jars in {jars}")
    cmd = ["java", "-Xss16m", "-Xmx2g", "-cp", os.pathsep.join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(jars, "*"), "-d", classes] + files
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("build: compilation failed")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return classes, digest


if __name__ == "__main__":
    print(build()[0])
