#!/usr/bin/env python3
"""Repository benchmark: b_fiba4 with the sum monoid on three workloads.

    python3 perfbench/run.py --workload citibike|ooo_bulk|stream_multikey \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the classes if needed (see build.py), then runs the workload in fresh
JVMs. Untraced (--trace 0) it reports the end-to-end metrics; set-up time is
the median over SETUP_RUNS processes, each timed from spawn to its first
step. Traced (--trace 1) it reports the per-layer metrics of a traced
process, and the tracing overhead against an untraced process run just
before it.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = build.ROOT
WORKLOADS = ("citibike", "ooo_bulk", "stream_multikey")
SETUP_RUNS = 3
DEADLINE_S = 175  # a run ends within 180 s
# Heap and compiler flags of each JVM; the self-test takes the default.
# The library workloads compile in the foreground (-Xbatch), so that the
# code they run does not depend on when a background compile finishes.
JVM_OPTS = {"citibike": ["-Xms1g", "-Xmx1g", "-Xbatch"],
            "ooo_bulk": ["-Xms1g", "-Xmx1g", "-Xbatch"],
            "stream_multikey": ["-Xms2g", "-Xmx2g"]}
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "--add-opens=java.security.jgss/sun.security.krb5=ALL-UNNAMED",
    "--enable-native-access=ALL-UNNAMED",
]


class RunError(Exception):
    pass


def java_cmd(classes: Path, workload: str, work: Path, main: str) -> list:
    opts = JVM_OPTS.get(workload, ["-Xms1g", "-Xmx1g"])
    return (["java"] + opts + ["-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
             f"-Djava.io.tmpdir={work / 'tmp'}",
             f"-Dlog4j2.configurationFile={ROOT / 'perfbench' / 'log4j2.properties'}"]
            + JAVA_OPENS + ["-cp", build.classpath(classes), main])


def run_jvm(cmd: list, work: Path, log: Path, deadline: float) -> tuple:
    """Run one benchmark JVM, killing it at `deadline` (monotonic seconds);
    returns (seconds from spawn to ready, report)."""
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "local"))
    ready = []
    reports = []
    with open(log, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err, text=True)

        def read():  # on its own thread, so the deadline holds while the JVM is silent
            for line in proc.stdout:
                if line.strip() == "PERFBENCH_READY" and not ready:
                    ready.append(time.monotonic() - t0)
                elif line.startswith("PERFBENCH_REPORT "):
                    reports.append(json.loads(line[len("PERFBENCH_REPORT "):]))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        timed_out = False
        try:
            proc.wait(timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
    if timed_out:
        raise RunError(f"benchmark JVM killed at the {DEADLINE_S} s deadline; log in {log}")
    if proc.returncode != 0 or not ready:
        tail = log.read_text()[-3000:] if log.exists() else ""
        raise RunError(f"benchmark JVM failed (exit {proc.returncode}):\n{tail}")
    return ready[0], (reports[0] if reports else None)


def declared_metrics(trace: bool) -> list:
    """(name, unit) of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run(args) -> dict:
    classes = build.build()
    deadline = time.monotonic() + DEADLINE_S
    out = build.build_dir()
    logs = out / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--data", str(ROOT / "perfbench" / "data" / "events.parquet"),
            "--traces", str(out / "traces")]
    # (mode, traced) of each process: set-up only, or a measured run
    if args.trace:
        plan = [("run", 0), ("run", 1)]
    else:
        plan = [("setup", 0)] * (SETUP_RUNS - 1) + [("run", 0)]
    setups = []
    reports = []
    for k, (mode, traced) in enumerate(plan):
        work = out / f"work-{os.getpid()}-{k}"
        try:
            cmd = java_cmd(classes, args.workload, work, "perfbench.Main") + base + [
                "--trace", str(traced), "--mode", mode, "--work", str(work)]
            ready, rep = run_jvm(cmd, work, logs / f"{args.workload}-seed{args.seed}-{k}.log", deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        setups.append(ready)
        if mode == "run":
            if rep is None:
                raise RunError("benchmark JVM printed no report")
            reports.append(rep)
    report = reports[-1]

    metrics = dict(report["metrics"])
    if args.trace:
        untraced = reports[0]["metrics"]["throughput_eps"]["value"]
        traced = metrics["trace.traced_eps"]["value"]
        metrics["trace.untraced_eps"] = {"value": untraced, "unit": "events/s"}
        metrics["trace.overhead_eps"] = {"value": traced - untraced, "unit": "events/s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    declared = declared_metrics(bool(args.trace))
    names = [n for n, _ in declared]
    missing = [n for n in names if n not in metrics]
    if args.trace:  # a layer the workload does not run reads 0
        for n, unit in declared:
            metrics.setdefault(n, {"value": 0.0, "unit": unit})
    elif missing:
        raise RunError(f"end-to-end metrics missing from the report: {missing}")

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(f"workload {args.workload}  seed {args.seed}  {'traced' if args.trace else 'untraced'}"
          f"  {args.seconds} s")
    for name in names:
        m = metrics[name]
        note = ""
        if name == "latency_p90_us":
            s = report["samples"]
            note = f"  ({s['steps']} samples, {s['steps_beyond_p90']} beyond)"
        if name == "setup_s":
            note = "  (median of " + ", ".join(f"{x:.3f}" for x in setups) + ")"
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    for name in sorted(metrics.keys() - set(names)):  # measured, but not a BENCHMARK.json metric
        print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}  (not in BENCHMARK.json)")
    print(f"error_rate {failed / max(1, attempted):.6g}  ({failed} wrong of {attempted} checked)")
    for key in ("samples", "timed_region", "traffic", "env"):
        print(f"{key} {json.dumps(report[key])}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {n: metrics[n] for n in names}}


def selftest() -> int:
    classes = build.build()
    work = build.build_dir() / f"selftest-{os.getpid()}"
    try:
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        cmd = java_cmd(classes, "selftest", work, "perfbench.SelfTest")
        return subprocess.run(cmd, cwd=ROOT, timeout=DEADLINE_S).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            p.error("--workload is required")
        result = run(args)
    except (build.BuildError, RunError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
