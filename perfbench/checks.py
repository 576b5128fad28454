"""Output checks: each returns the problems found in one command's CSV.

An invocation with any problem counts as failed.  The CSV layout is the
one ``smallmass.harness.write_table`` writes: ``# key = value`` metadata
lines (a matrix value may continue on lines without ``#``), then the
header line, then one row per line.
"""

from __future__ import annotations

import math

CONVERGE_COLUMNS = ("eps", "w2_paper_mode", "w2_gk_mode", "ci_halfwidth",
                    "n_samples", "w2_method")
DIAGNOSE_COLUMNS = ("module", "eps", "stat", "value", "ci")
MODE_COLUMN = {"paper": "w2_paper_mode", "green-kubo": "w2_gk_mode",
               "explicit": "w2_gk_mode"}


def read_table(text: str, columns, free=None) -> tuple[dict, list[dict]]:
    """(metadata, rows as dicts); raises ValueError on a malformed table.

    ``free`` names the one column whose value may itself contain commas.
    """
    lines = text.splitlines()
    header = ",".join(columns)
    if header not in lines:
        raise ValueError(f"no header line {header!r}")
    at = lines.index(header)
    meta = {}
    for line in lines[:at]:
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            meta[key] = value
    rows = []
    for line in lines[at + 1:]:
        fields = line.split(",")
        extra = len(fields) - len(columns)
        if free is not None and extra > 0:
            a = columns.index(free)
            fields[a : a + extra + 1] = [",".join(fields[a : a + extra + 1])]
        if len(fields) != len(columns):
            raise ValueError(f"row has {len(fields)} fields, expected {len(columns)}: {line!r}")
        rows.append(dict(zip(columns, fields)))
    return meta, rows


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def converge_problems(text: str, cfg: dict, w2_method: str | None,
                      selected_mode: str | None) -> list[str]:
    try:
        meta, rows = read_table(text, CONVERGE_COLUMNS)
    except ValueError as err:
        return [str(err)]
    grid = cfg["run.eps_grid"]
    out = []
    if len(rows) != len(grid):
        out.append(f"{len(rows)} rows for {len(grid)} eps values")
    n_samples = cfg["run.replicas"] * cfg["run.samples_per_replica"]
    value_columns = {MODE_COLUMN[m] for m in cfg["limit.modes"]} | {"ci_halfwidth"}
    for row, eps in zip(rows, grid):
        if not _finite(row["eps"]) or float(row["eps"]) != eps:
            out.append(f"row eps {row['eps']} is not grid value {eps!r}")
        for col in sorted(value_columns):
            if not _finite(row[col]):
                out.append(f"eps {eps}: {col} = {row[col]} is not finite")
        if row["n_samples"] != str(n_samples):
            out.append(f"eps {eps}: n_samples {row['n_samples']} != {n_samples}")
        if w2_method is not None and row["w2_method"] != w2_method:
            out.append(f"eps {eps}: w2_method {row['w2_method']} != {w2_method}")
    if selected_mode is not None and meta.get("selected_mode") != selected_mode:
        out.append(f"selected_mode {meta.get('selected_mode')!r} != {selected_mode!r}")
    return out


def diagnose_problems(text: str, cfg: dict) -> list[str]:
    try:
        _, rows = read_table(text, DIAGNOSE_COLUMNS, free="stat")
    except ValueError as err:
        return [str(err)]
    out = []
    for row in rows:
        if not _finite(row["value"]) or (row["ci"] and not _finite(row["ci"])):
            out.append(f"{row['module']} {row['eps']} {row['stat']}: "
                       f"value {row['value']} ci {row['ci']} not finite")
    v_msq = [r for r in rows if r["stat"] == "v_msq"]
    grid = cfg["run.eps_grid"]
    if [float(r["eps"]) for r in v_msq] != grid:
        out.append(f"v_msq rows at eps {[r['eps'] for r in v_msq]}, expected {grid}")
    elif not out:
        vals = [float(r["value"]) for r in v_msq]
        if any(b >= a for a, b in zip(vals, vals[1:])):
            out.append(f"v_msq does not strictly decrease along the eps grid: {vals}")
    return out


def output_problems(workload, cfg: dict, text: str) -> list[str]:
    if workload.command == "converge":
        return converge_problems(text, cfg, workload.w2_method, workload.selected_mode)
    return diagnose_problems(text, cfg)
