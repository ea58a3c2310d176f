#!/usr/bin/env python3
"""Build the benchmark: compile the repository's main Scala sources and the
benchmark's own sources with the Scala compiler that ships with Spark.

    python3 perfbench/build.py

Classes go to <build dir>/perfbench/classes, where the build dir is
$CARGO_TARGET_DIR if set, else .bench_build at the root of the checkout. A
rebuild happens only when a source file changed.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


class BuildError(Exception):
    pass


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if not submit:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise BuildError(f"no jars directory under {home}")
    return jars


def classpath(classes: Path) -> str:
    return os.pathsep.join([str(classes), str(spark_jars() / "*")])


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise BuildError(f"source directory missing: {d.relative_to(ROOT)}")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not any(str(p).startswith(str(SOURCE_DIRS[0])) for p in files):
        raise BuildError("no Scala sources under src/main/scala")
    return files


def build() -> Path:
    """Compile if needed; returns the classes directory."""
    files = sources()
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    stamp = digest.hexdigest()
    out = build_dir()
    classes = out / "classes"
    stamp_file = out / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes
    jars = spark_jars()
    compiler = [jars / f for f in ("scala-compiler", "scala-library", "scala-reflect")]
    compiler = [next(iter(sorted(jars.glob(f"{p.name}-2.13*.jar"))), None) for p in compiler]
    if None in compiler:
        raise BuildError(f"Scala 2.13 compiler jars not found in {jars}")
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp),
           "-classpath", str(jars / "*")] + [str(p) for p in files]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BuildError("compilation failed:\n" + r.stdout[-4000:])
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
