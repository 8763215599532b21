"""Build file of the benchmark: compiles the program (src/main/scala) together
with the harness (perfbench/src) using the Scala compiler that ships among
Spark's jars, so no build tool or network access is needed.

Outputs go to $CARGO_TARGET_DIR when it is set, else to .bench_build, under
a directory named after a hash of every source, so an unchanged tree is
compiled once.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

COMPILE_TIMEOUT_S = 600


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def out_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def spark_jars():
    """The jars directory of the Spark distribution ($SPARK_HOME, else the
    one whose spark-submit is on PATH)."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    jars = os.path.join(home or "", "jars")
    if not home or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        fail("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def sources(root):
    prog = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not prog:
        fail(f"no program sources under {os.path.join(root, 'src', 'main', 'scala')}")
    return prog + sorted(glob.glob(os.path.join(root, "perfbench", "src", "*.scala")))


def build(root):
    """Returns the classes directory, compiling first if the sources changed."""
    jars = spark_jars()
    srcs = sources(root)
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    h.update("\n".join(sorted(os.listdir(jars))).encode())
    classes = os.path.join(out_dir(root), "perfbench", "classes-" + h.hexdigest()[:16])
    if os.path.isdir(classes):
        return classes

    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler_cp = os.pathsep.join(
        glob.glob(os.path.join(jars, f"scala-{name}-2.13.*.jar"))[0]
        for name in ("compiler", "library", "reflect"))
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", "-cp", compiler_cp,
           "scala.tools.nsc.Main", "-nowarn", "-classpath", os.path.join(jars, "*"),
           "-d", tmp] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    try:
        rc = subprocess.run(cmd, cwd=root, timeout=COMPILE_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("compilation timed out")
    if rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("compilation failed")
    os.rename(tmp, classes)
    return classes
