#!/usr/bin/env python3
"""Builds the GM benchmark from source and runs one workload.

Run from the root of the repository:

    python3 gmperf/run.py --workload selective --seed 1 --seconds 10 --trace 0

The first run compiles the matcher (src/main/scala) and the benchmark with
sbt; later runs reuse the build while the sources are unchanged. The last line
of stdout is the JSON result. See gmperf/README.md.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "gmperf")


def fail(msg):
    print(f"gmperf: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def launch_args():
    """Compiles with sbt when the sources changed; returns the JVM's options and
    classpath, which gmperf/build.sbt defines (heap, collector, Spark flags)."""
    args_file = os.path.join(BUILD, "launch-args")
    stamp_file = os.path.join(BUILD, "stamp")
    want = stamp()
    if os.path.isfile(args_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == want:
                with open(args_file) as fh:
                    return fh.read().splitlines()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "benchLaunch"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=840)
    written = os.path.join(HERE, "target", "launch-args")
    if proc.returncode != 0 or not os.path.isfile(written):
        sys.stderr.write(proc.stdout[-8000:] + "\n")
        fail("sbt build failed")
    with open(written) as fh:
        args = fh.read().splitlines()
    os.makedirs(BUILD, exist_ok=True)
    with open(args_file, "w") as fh:
        fh.write("\n".join(args))
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return args


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "main", "scala", "repro", "core", "GM.scala")):
        fail(f"matcher sources not found under {ROOT}/src/main/scala; run from a repository checkout")
    args = launch_args()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Djava.io.tmpdir={tmp}"] + args
    cmd += ["gmperf.Main", "--refs", os.path.join(HERE, "refs"), "--out", os.path.join(HERE, "out")]
    cmd += sys.argv[1:]
    sys.stdout.flush()
    os.execvp(cmd[0], cmd)


if __name__ == "__main__":
    main()
