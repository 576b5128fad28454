"""Run one smallmass command in this process and record how it went.

Usage::

    python3 perfbench/child.py --record REC.json [--spans SPANS.json | --setup-only] \
        -- converge CFG --out DIR

The command line after ``--`` goes to ``smallmass.cli.main`` unchanged.
``--setup-only`` stops the command at its first call into a simulation
layer, so only the set-up interval is measured.
The record holds clock stamps on the system-wide monotonic clock (so the
parent can subtract its own start stamp), CPU time and peak resident set
of this process and its reaped children, the process-pool counters and
the exit code.  With ``--spans`` the per-layer spans are recorded too;
they are written only after the command has finished.
"""

import argparse
import json
import resource
import sys
import time

# The simulation entry points the CLI commands of the benchmark call.
SIM_ENTRY = ("run_convergence", "run_diagnose")


class SetupDone(Exception):
    """Raised at the first simulation call of a set-up-only invocation."""


def _stopper():
    def stop(*args, **kwargs):
        raise SetupDone

    return stop


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--record", required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--spans")
    group.add_argument("--setup-only", action="store_true")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import_start = time.monotonic()
    import smallmass.cli
    import_end = time.monotonic()
    import smallmass.harness  # noqa: F401  (the instruments patch its names)
    from tracer import Instruments, install_spans

    inst = Instruments()
    inst.count_pools()
    if args.spans:
        install_spans(inst)
    if args.setup_only:
        for attr in SIM_ENTRY:
            setattr(smallmass.harness, attr, _stopper())
    inst.stamp_first_call("smallmass.harness", SIM_ENTRY)

    try:
        rc = smallmass.cli.main(command)
    except SetupDone:
        rc = 0
    end = time.monotonic()

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {
        "rc": rc,
        "import_start": import_start,
        "import_end": import_end,
        "setup_at": inst.first_call_at,
        "end_at": end,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "pools_started": inst.counts["harness.pools_started"],
        "batches": inst.counts["harness.batches"],
        "missing": inst.missing,
    }
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(inst.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
