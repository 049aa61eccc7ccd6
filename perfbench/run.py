"""Benchmark of the shapegraph command line on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is a closed loop with one client and no threads: it sends
one operation at a time through the CLI entry point in-process
(shapegraph.cli.main with --json, through click's test runner), so parsing,
the verdict and the exit code are all paid for and checked. The inputs
come from the seed and are written to files before timing starts.

A timed run (--trace 0) makes at least MIN_PASSES whole passes over the
operation list, and more until --seconds have passed. Times are scaled to
reference seconds by a calibration loop run around each operation, and
each operation's time is its median over the passes; the last line of
output is a JSON object with the end-to-end metrics. A traced run
(--trace 1) makes one untraced and one traced pass and reports the
per-layer metrics and the tracing overhead. A wrong verdict makes the run
exit 1 and names the operation. --workload all runs every workload in its
own process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import instances
import metrics
from judge import FAILED, OK, Judge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
# The calibration loop's wall time on the reference machine (2 cores,
# Python 3.11.7) when it is not slowed by other load.
CALIBRATION_STEPS = 60000
CALIBRATION_REF_S = 0.016
MIN_PASSES = 2

END_TO_END_UNITS = {
    "verdict_s_p50": "s",
    "verdict_s_tail": "s",
    "goodput_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_cli():
    """Import the program from the checkout's src/ directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shapegraph", "cli.py")):
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, src)
    from click.testing import CliRunner

    import shapegraph.cli

    return CliRunner(), shapegraph.cli.main


def setup(workload, seed, workdir):
    """Imports, input generation and file writing: everything before the
    first timed operation. Returns (runner, main, ops, argvs)."""
    runner, main = load_cli()
    ops = instances.OPS[workload](seed)
    argvs = []
    for i, op in enumerate(ops):
        d = os.path.join(workdir, str(i))
        os.mkdir(d)
        for name, text in op.files.items():
            with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argvs.append(["--json"] + [os.path.join(d, a) if a in op.files else a for a in op.argv])
    return runner, main, ops, argvs


def setup_seconds(workload, seed):
    """Median time, in reference seconds, of fresh processes that only do
    the set-up."""
    samples = []
    cal = calibration()
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                        "--workload", workload, "--seed", str(seed)], check=True)
        dt = time.perf_counter() - t
        cal_after = calibration()
        samples.append(reference_seconds(dt, cal, cal_after))
        cal = cal_after
    return statistics.median(samples)


def calibration():
    """Wall time of a fixed pure-Python loop of dict and tuple work."""
    t = time.perf_counter()
    d, acc = {}, 0
    for i in range(CALIBRATION_STEPS):
        k = (i * 7919) % 1013
        d[k] = d.get(k, 0) + 1
        acc += len((k, i, acc & 7))
    return time.perf_counter() - t


def reference_seconds(seconds, cal_before, cal_after):
    """Scale a wall time to the reference speed, by the calibration loops
    run just before and just after it. The machine's speed drifts by tens
    of percent over seconds to minutes, and the program and the loop slow
    down together."""
    return seconds * CALIBRATION_REF_S / ((cal_before + cal_after) / 2)


def run_pass(runner, main, argvs, each=None):
    """One pass over every operation, each between two calibration loops:
    [(reference seconds, wall seconds, exit code, crash, stdout)] and the
    wall time of the pass."""
    records = []
    t0 = time.perf_counter()
    cal = calibration()
    for i, argv in enumerate(argvs):
        t = time.perf_counter()
        if each:
            res = each(i, lambda: runner.invoke(main, argv))
        else:
            res = runner.invoke(main, argv)
        dt = time.perf_counter() - t
        cal_after = calibration()
        exc = res.exception
        crash = type(exc).__name__ if exc is not None and not isinstance(exc, SystemExit) else ""
        records.append((reference_seconds(dt, cal, cal_after), dt, res.exit_code, crash, res.stdout))
        cal = cal_after
    return records, time.perf_counter() - t0


class Outcomes:
    """Judged outcomes of every pass of a run, by operation."""

    def __init__(self, ops):
        self.ops = ops
        self.judge = Judge()
        self.seconds = [[] for _ in ops]
        self.failed_op = [False] * len(ops)
        self.ok = 0
        self.failed = []
        self.wrong = []
        self.crashes = 0
        self.attempted = 0

    def add(self, records):
        for i, (op, (ref_s, dt, code, crash, stdout)) in enumerate(zip(self.ops, records)):
            status, reason = self.judge.outcome(op, code, crash, stdout, dt)
            self.attempted += 1
            self.crashes += bool(crash)
            self.seconds[i].append(ref_s)
            if status == OK:
                self.ok += 1
                continue
            self.failed_op[i] = True
            (self.failed if status == FAILED else self.wrong).append(f"{op.name}: {reason}")


def timed(workload, seed, seconds, runner, main, ops, argvs):
    """MIN_PASSES whole passes, and more until --seconds have passed."""
    outcomes = Outcomes(ops)
    passes, wall = [], 0.0
    while len(passes) < MIN_PASSES or wall < seconds:
        records, pass_wall = run_pass(runner, main, argvs)
        passes.append(records)
        wall += pass_wall
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for records in passes:
        outcomes.add(records)
    ok_per_pass = len(ops) - sum(outcomes.failed_op)
    e2e = metrics.end_to_end(outcomes.seconds, outcomes.failed_op, ok_per_pass)
    values = {
        "verdict_s_p50": e2e["verdict_s_p50"],
        "verdict_s_tail": e2e["verdict_s_tail"],
        "goodput_per_s": e2e["goodput_per_s"],
        "ok_ratio": outcomes.ok / outcomes.attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_seconds(workload, seed),
    }
    print(f"{workload} seed {seed}: {len(passes)} pass(es) of {len(ops)} operations in {wall:.2f} s "
          f"wall; times in reference seconds, each operation's the median over the passes")
    notes = {
        "verdict_s_tail": f"p{e2e['tail_percentile']:.1f} of {e2e['tail_samples']} operations",
        "goodput_per_s": f"{ok_per_pass} correct verdicts per pass",
        "ok_ratio": f"{outcomes.ok} of {outcomes.attempted}",
        "setup_s": f"median of {SETUP_SAMPLES} fresh processes",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<16} {values[name]:12.6g} {unit:<6} {notes.get(name, '')}")
        if name == "ok_ratio":
            n_failed = len(outcomes.failed)
            print(f"  {'failed_ratio':<16} {n_failed / outcomes.attempted:12.6g} {'ratio':<6} "
                  f"{n_failed} of {outcomes.attempted}")
    if values["verdict_s_tail"] == metrics.INF:
        # JSON has no infinity: an operation without a verdict counts as
        # lasting a whole pass.
        values["verdict_s_tail"] = e2e["pass_s"]
    return outcomes, {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def traced(workload, seed, runner, main, ops, argvs):
    import shapegraph

    from tracing import Tracer

    outcomes = Outcomes(ops)
    untraced, _ = run_pass(runner, main, argvs)
    outcomes.add(untraced)
    tracer = Tracer()
    tracer.install(shapegraph)
    try:
        records, _ = run_pass(runner, main, argvs, each=tracer.operation)
    finally:
        tracer.uninstall()
    crashes_before = outcomes.crashes
    outcomes.add(records)
    untraced_s, traced_s = sum(r[0] for r in untraced), sum(r[0] for r in records)
    layer = metrics.layer_metrics(*tracer.arrays(), crashes=outcomes.crashes - crashes_before,
                                  overhead_ratio=traced_s / untraced_s)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.spans")
    tracer.write(path)
    print(f"{workload} seed {seed}: per-layer metrics of one traced pass of {len(ops)} operations "
          f"({len(tracer.kind)} spans, written to {os.path.relpath(path, ROOT)})")
    print(f"  tracing overhead: {traced_s:.2f} s traced against {untraced_s:.2f} s untraced "
          f"(reference seconds); per-layer times below are raw wall seconds")
    for name, unit in metrics.LAYER_METRICS:
        print(f"  {name:<44} {layer[name]:12.6g} {unit}")
    return outcomes, {name: {"value": layer[name], "unit": unit} for name, unit in metrics.LAYER_METRICS}


def run_workload(args):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        runner, main, ops, argvs = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        if args.trace:
            outcomes, values = traced(args.workload, args.seed, runner, main, ops, argvs)
        else:
            outcomes, values = timed(args.workload, args.seed, args.seconds, runner, main, ops, argvs)
    finally:
        shutil.rmtree(workdir)
    for line in dict.fromkeys(outcomes.failed):
        print(f"  failed: {line}")
    for line in outcomes.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({"correct": not outcomes.wrong, "attempted": outcomes.attempted,
                      "failed": len(outcomes.failed), "metrics": values}))
    return 1 if outcomes.wrong else 0


def run_all(args):
    """Every workload in its own fresh process."""
    status = 0
    results = {}
    for w in instances.OPS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        status = status or proc.returncode
        if proc.stdout.strip():
            results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*instances.OPS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
