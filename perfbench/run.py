"""Benchmark of smallmass: end-to-end metrics per workload, per-layer on request.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ou-sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Each invocation runs one smallmass command in a fresh process
(``perfbench/child.py``) on a config generated from the seed, checks the
CSV it writes, and times it from process start.  A run repeats cycles of
invocations for about ``--seconds`` seconds and reports medians.

An invocation at W workers is pinned to the first W CPUs this process may
use.  Its times are scaled by the host-speed factor that
``perfbench/speed.py`` measures on those CPUs while it runs, so that they
move with the program and not with the load other guests put on a shared
host; the unscaled medians and the factor are printed beside them.

``--trace 0`` reports the end-to-end metrics.  Each cycle is one timed
(untraced) invocation at the workload's worker count plus one set-up-only
invocation, which stops at the first simulation call, so that ``setup_s``
is a median over twice as many set-ups as timed runs.  ``--trace 1`` runs
cycles of a timed invocation at the workload's worker count, a timed one
at 1 worker (when that differs) and a traced one at 1 worker -- spans
recorded in forked pool workers never reach the parent -- and reports the
per-layer metrics.  Within a run every CSV must be byte-identical, so the traced
run also checks that tracing and the worker count leave results alone.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Failed invocations (nonzero exit or a failed output check) count in
``failed``; ``fail_rate`` is printed as failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import output_problems
from speed import Speedometer
from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
MIN_TIMED = 3
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
SCALED = ("wall_s", "setup_s", "cpu_s")  # times scaled by the host-speed factor
SETUP_PROBES = 1  # set-up-only invocations per timed one


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


@dataclass
class Invocation:
    workers: int
    kind: str  # timed | setup (stops at the first simulation call) | traced
    record: dict | None = None
    factor: float = 1.0  # host-speed factor measured while it ran
    layers: dict | None = None
    csv: bytes | None = None
    problems: list = field(default_factory=list)
    untraced: list = field(default_factory=list)  # span hooks whose target was not found

    def metric(self, name):
        raw = self.raw(name)
        return raw * self.factor if name in SCALED else raw

    def raw(self, name):
        r = self.record
        return {"wall_s": r["end_at"] - r["start_at"],
                "setup_s": r["setup_at"] - r["start_at"],
                "cpu_s": r["cpu_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "cli.import_s": r["import_end"] - r["import_start"],
                "harness.pools_started": r["pools_started"],
                "harness.batches": r["batches"]}[name]


def _child_env(workload, workers):
    env = dict(os.environ, **workload.env(workers))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(workload, cfg, cfg_path, work, index, workers, kind, deadline) -> Invocation:
    out = work / f"{index:03d}"
    out.mkdir()
    cmd = [sys.executable, str(HERE / "child.py"), "--record", str(out / "record.json")]
    if kind == "traced":
        cmd += ["--spans", str(out / "spans.json")]
    elif kind == "setup":
        cmd += ["--setup-only"]
    cmd += ["--", workload.command, str(cfg_path), "--out", str(out)]
    inv = Invocation(workers=workers, kind=kind)
    cpus = CPUS[:workers]
    # The child and its pool workers inherit this thread's CPU set.
    os.sched_setaffinity(0, cpus)
    with open(out / "stderr.txt", "wb") as err, Speedometer(cpus) as meter:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(workload, workers),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            # The session also holds the command's pool workers.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            rc = None
    inv.factor = meter.factor()
    if rc is None:
        inv.problems.append("timed out")
        return inv
    if rc != 0:
        tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        inv.problems.append(f"exit code {rc}: {' '.join(tail)}")
        return inv
    record = json.loads((out / "record.json").read_text())
    record["start_at"] = start
    if record["setup_at"] is None:
        inv.problems.append("no call into a simulation layer")
        return inv
    inv.record = record
    if kind == "setup":
        return inv
    if kind == "traced":
        spans = json.loads((out / "spans.json").read_text())
        inv.layers = layer_metrics(spans)
        inv.untraced = spans["missing"]
    csv_path = out / f"{workload.command}.csv"
    if not csv_path.is_file():
        inv.problems.append(f"no {csv_path.name}")
        return inv
    inv.csv = csv_path.read_bytes()
    inv.problems += output_problems(workload, cfg, inv.csv.decode("utf-8", errors="replace"))
    return inv


def run_workload(workload, seed, seconds, trace, deadline) -> list[Invocation]:
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    cfg = workload.config(ROOT, seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    (work / "workload.json").write_text(json.dumps(
        {"workload": workload.name, "command": workload.command, "seed": seed,
         "workers": workload.workers, "env": workload.env(workload.workers)}, indent=2) + "\n")
    # Compile bytecode and warm the file cache outside the measurement.
    subprocess.run([sys.executable, "-c", "import smallmass.cli"], cwd=ROOT,
                   env=_child_env(workload, 1), stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
    if trace:
        cycle = [(workload.workers, "timed")]
        if workload.workers != 1:
            cycle.append((1, "timed"))
        cycle.append((1, "traced"))
    else:
        cycle = [(workload.workers, "timed")] + [(workload.workers, "setup")] * SETUP_PROBES
    min_cycles = 1 if trace else MIN_TIMED
    invs, cycle_times = [], []
    begin = time.monotonic()
    while True:
        t0 = time.monotonic()
        for workers, kind in cycle:
            invs.append(invoke(workload, cfg, cfg_path, work, len(invs), workers, kind,
                               deadline))
        now = time.monotonic()
        cycle_times.append(now - t0)
        typical = statistics.median(cycle_times)
        if now + typical > deadline:
            break
        if len(cycle_times) >= min_cycles and now - begin + typical > seconds:
            break
    reference = next((i.csv for i in invs if i.csv is not None), None)
    for inv in invs:
        if inv.csv is not None and inv.csv != reference:
            inv.problems.append(f"CSV differs from the first one of this run "
                                f"(workers={inv.workers}, {inv.kind})")
    if any(i.problems for i in invs):
        print(f"{workload.name}: outputs of the failed run kept in {work}")
    else:
        shutil.rmtree(work)
    return invs


def _median(values):
    return statistics.median(values) if values else 0.0


def samples(workload, invs, name, raw=False) -> list:
    """End-to-end metric values of the invocations that measure it."""
    kinds = ("timed", "setup") if name == "setup_s" else ("timed",)
    return [i.raw(name) if raw else i.metric(name) for i in invs
            if i.record is not None and i.kind in kinds and i.workers == workload.workers]


def summarize(workload, invs, trace) -> dict:
    """Metric name -> value for one workload's invocations."""
    if not trace:
        return {m: _median(samples(workload, invs, m)) for m in END_TO_END}
    ok = [i for i in invs if i.record is not None]
    traced = [i for i in ok if i.kind == "traced"]
    at_workers = [i for i in ok if i.kind == "timed" and i.workers == workload.workers]
    at_one = [i for i in ok if i.kind == "timed" and i.workers == 1]
    names = list(traced[0].layers) if traced else []
    out = {n: _median([i.layers[n] for i in traced]) for n in names}
    out["cli.import_s"] = _median([i.metric("cli.import_s") for i in traced])
    for n in ("harness.pools_started", "harness.batches"):
        out[n] = _median([i.metric(n) for i in at_workers])
    out["trace.wall_s"] = _median([i.metric("wall_s") for i in traced])
    out["trace.overhead_s"] = out["trace.wall_s"] - _median([i.metric("wall_s") for i in at_one])
    return out


def report(workload, invs, metrics, trace):
    failed = sum(1 for i in invs if i.problems)
    env = " ".join(f"{k}={v}" for k, v in sorted(workload.env(workload.workers).items()))
    factors = [i.factor for i in invs if i.record is not None]
    print(f"{workload.name}: smallmass {workload.command} ({env}); "
          f"{len(invs)} invocations; host-speed factor median {_median(factors):.4g}, "
          f"min {min(factors, default=0):.4g}, max {max(factors, default=0):.4g}")
    for i, inv in enumerate(invs):
        for p in inv.problems:
            print(f"{workload.name}: invocation {i} failed: {p}")
    untraced = sorted({name for inv in invs for name in inv.untraced})
    if untraced:
        print(f"{workload.name}: not traced, no such function: {', '.join(untraced)}")
    for name, value in metrics.items():
        line = f"{workload.name:14s} {name:36s} {value:14.6g} {unit(name)}"
        if not trace:
            vals = samples(workload, invs, name)
            line += f"   median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}"
            if name in SCALED:
                line += f"; unscaled median {_median(samples(workload, invs, name, True)):.6g}"
        print(line)
    print(f"{workload.name:14s} {'fail_rate':36s} {failed / len(invs):14.6g} ratio"
          f"   ({failed} of {len(invs)} invocations failed)")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in ("src/smallmass/cli.py", "configs/benchmark.json", "configs/diagnose.json"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} not found under {ROOT}; run from a smallmass "
                  f"checkout", file=sys.stderr)
            return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    attempted = failed = 0
    metrics = {}
    for k, name in enumerate(names):
        workload = WORKLOADS[name]
        # Share what is left of the run limit among the workloads still to run.
        deadline = time.monotonic() + (start + RUN_LIMIT_S - time.monotonic()) / (len(names) - k)
        invs = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
        if not any(i.record for i in invs):
            print(f"perfbench: every invocation of {name} failed: {invs[0].problems}",
                  file=sys.stderr)
            return 1
        values = summarize(workload, invs, args.trace)
        failed += report(workload, invs, values, args.trace)
        attempted += len(invs)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + n: {"value": v, "unit": unit(n)} for n, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
