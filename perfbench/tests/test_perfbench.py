"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import smallmass.cli
import smallmass.harness
from checks import (CONVERGE_COLUMNS, converge_problems, diagnose_problems, output_problems,
                    read_table)
from smallmass.config import load_config
from speed import REFERENCE_KERNEL_S, Speedometer
from tracer import Instruments, install_spans, layer_metrics
from workloads import COUPLED_SWEEP, DIAGNOSE, OU_SWEEP, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "ou-sweep": dataclasses.replace(OU_SWEEP, overrides={
        "run.N": 8, "run.T": 0.5, "run.eps_grid": [0.2, 0.1], "run.replicas": 64,
        "limit.replicas": 8, "limit.samples_per_replica": 8, "gk.horizon_fast": 20.0,
        "gk.reps": 8}),
    "coupled-sweep": dataclasses.replace(COUPLED_SWEEP, overrides={
        **COUPLED_SWEEP.overrides, "run.N": 4, "run.T": 0.2, "run.eps_grid": [0.2, 0.1],
        "run.replicas": 8, "limit.replicas": 1, "limit.samples_per_replica": 8,
        "gk.reps": 4}),
    "diagnose": dataclasses.replace(DIAGNOSE, overrides={
        "run.T": 0.5, "run.eps_grid": [0.2, 0.1], "diag.moment_reps": 4, "diag.reps": 100,
        "gk.reps": 8}),
}


def _run_cli(workload, tmp_path, tag, seed=3):
    cfg_path = tmp_path / "config.json"
    cfg = workload.config(ROOT, seed)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / tag
    assert smallmass.cli.main([workload.command, str(cfg_path), "--out", str(out)]) == 0
    return cfg, (out / f"{workload.command}.csv").read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_config_is_accepted(name, tmp_path):
    doc = WORKLOADS[name].config(ROOT, seed=2**32 + 7)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.values["run.seed"] == doc["run.seed"]
    if WORKLOADS[name].command == "converge":
        # The eps and limit samples are the same size, so W2 takes an exact route.
        reps, spr = cfg.limit_pooling()
        assert reps * spr == cfg.values["run.replicas"] * cfg.values["run.samples_per_replica"]


def test_configs_directory_is_only_read(tmp_path):
    before = {p: p.read_bytes() for p in (ROOT / "configs").iterdir()}
    for workload in WORKLOADS.values():
        workload.config(ROOT, seed=1)
    assert before == {p: p.read_bytes() for p in (ROOT / "configs").iterdir()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_instruments_leave_results_bit_identical(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLMASS_WORKERS", "1")
    workload = TINY[name]
    original = smallmass.harness.run_eps_replicas
    _, plain = _run_cli(workload, tmp_path, "plain")
    inst = Instruments()
    inst.count_pools()
    install_spans(inst)
    inst.stamp_first_call("smallmass.harness", ("run_convergence", "run_diagnose"))
    try:
        cfg, traced = _run_cli(workload, tmp_path, "traced")
    finally:
        inst.restore()
    assert traced == plain
    assert inst.missing == []
    assert inst.first_call_at is not None
    metrics = layer_metrics(inst.dump())
    if workload.command == "converge":
        steps = sum(round(cfg["run.T"] / (cfg["run.h0"] * e)) for e in cfg["run.eps_grid"])
        assert metrics["dynamics_eps.particle_steps"] == (
            cfg["run.replicas"] * cfg["run.N"] * steps)
        assert metrics["dynamics_eps.kept_ratio"] == 1 / cfg["run.N"]
        assert metrics["transport.calls"] == len(cfg["run.eps_grid"]) * 2 * 25
        assert metrics["transport.bootstrap_share"] == 24 / 25
    else:
        assert metrics["dynamics_eps.kept_ratio"] == 1.0
        assert metrics["diagnostics.moment_table_s"] > 0.0
    assert smallmass.harness.run_eps_replicas is original
    _, after = _run_cli(workload, tmp_path, "after")
    assert after == plain


def _replace_field(text, column, value):
    """Set ``column`` of the first data row of a converge CSV to ``value``."""
    lines = text.splitlines(keepends=True)
    at = lines.index(",".join(CONVERGE_COLUMNS) + "\n")
    fields = lines[at + 1].rstrip("\n").split(",")
    fields[CONVERGE_COLUMNS.index(column)] = value
    lines[at + 1] = ",".join(fields) + "\n"
    return "".join(lines)


def test_corrupted_converge_csv_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLMASS_WORKERS", "1")
    cfg, text = _run_cli(TINY["ou-sweep"], tmp_path, "ou")
    # At this size the verdict is noise, so expect the one this run reached.
    verdict = read_table(text, CONVERGE_COLUMNS)[0]["selected_mode"]
    workload = dataclasses.replace(TINY["ou-sweep"], selected_mode=verdict)
    assert output_problems(workload, cfg, text) == []
    other = "paper" if verdict == "green-kubo" else "green-kubo"
    wrong_mode = text.replace(f"# selected_mode = {verdict}\n", f"# selected_mode = {other}\n")
    assert wrong_mode != text
    assert output_problems(workload, cfg, wrong_mode)
    assert output_problems(workload, cfg, _replace_field(text, "w2_gk_mode", "nan"))
    assert output_problems(workload, cfg, _replace_field(text, "ci_halfwidth", "inf"))
    assert output_problems(workload, cfg, _replace_field(text, "n_samples", "63"))
    assert converge_problems(text, cfg, "assignment", None)
    assert output_problems(workload, cfg, text.rsplit("\n", 2)[0] + "\n")  # a row lost


def test_corrupted_diagnose_csv_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("SMALLMASS_WORKERS", "1")
    workload = TINY["diagnose"]
    cfg, text = _run_cli(workload, tmp_path, "diag")
    assert diagnose_problems(text, cfg) == []
    rows = [line for line in text.splitlines() if ",v_msq," in line]

    def with_value(k, value):
        fields = rows[k].split(",")
        fields[3] = value
        return text.replace(rows[k], ",".join(fields))

    assert diagnose_problems(with_value(1, "1e9"), cfg)  # v_msq rises with smaller eps
    assert diagnose_problems(with_value(0, "nan"), cfg)
    assert diagnose_problems(text.replace(rows[1] + "\n", ""), cfg)  # an eps lost


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ou-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_setup_only_invocation_stops_before_simulating(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY["coupled-sweep"].config(ROOT, 3)))
    record = tmp_path / "record.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "SMALLMASS_WORKERS": "1"}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "--record",
                    str(record), "--setup-only", "--", "converge", str(cfg_path),
                    "--out", str(tmp_path / "out")],
                   env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)
    rec = json.loads(record.read_text())
    assert rec["rc"] == 0
    assert rec["import_start"] < rec["import_end"] < rec["setup_at"] <= rec["end_at"]
    assert (tmp_path / "out").is_dir()
    assert not (tmp_path / "out" / "converge.csv").exists()


def test_speedometer_samples_every_cpu_and_leaves_the_caller_alone():
    import os
    import time

    cpus = sorted(os.sched_getaffinity(0))
    with Speedometer(cpus) as meter:
        time.sleep(0.2)
    # Each probe thread samples once at start and then every PERIOD_S.
    assert len(meter.samples) >= 2 * len(cpus)
    assert all(s > 0 for s in meter.samples)
    assert meter.factor() == pytest.approx(
        REFERENCE_KERNEL_S * len(meter.samples) / sum(meter.samples))
    assert os.sched_getaffinity(0) == set(cpus)
