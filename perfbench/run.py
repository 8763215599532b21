#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a source tree:

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 5 --trace 0

Compiles the program and the harness when needed (see build.py), then runs
the harness (perfbench/src/Main.scala) in one JVM with Spark in local mode.
The harness prints human-readable lines and, as its last line, one JSON
object with the metrics; this script passes its stdout through and fails
unless that last line is such an object.
"""

import json
import os
import shutil
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
import build  # noqa: E402  (perfbench/build.py)

RUN_TIMEOUT_S = 170

JDK_OPENS = [
    f"--add-opens=java.base/{pkg}=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
                "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
                "sun.util.calendar")
]


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    classes = build.build(root)
    tmp = os.path.join(build.out_dir(root), "perfbench", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java", "-XX:-UsePerfData", "-Xmx2g", "-Xss8m"] + JDK_OPENS +
           [f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={os.path.join(here, 'log4j2.properties')}",
            "-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
            "perfbench.Main"] + sys.argv[1:])
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            if line.strip():
                last = line
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    if rc != 0:
        print(f"perfbench: harness exited with code {rc}", file=sys.stderr)
        sys.exit(rc if rc > 0 else 1)
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: the harness printed no result line", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
