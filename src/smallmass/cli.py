"""Command-line interface.

Subcommands::

    smallmass converge <config> [--out DIR]       eps-sweep convergence study
    smallmass simulate-eps <config> [--out DIR]   pooled eps-system samples
    smallmass simulate-limit <config> [--out DIR] pooled limit-SDE samples
    smallmass estimate-gk <config> [--out DIR]    effective-diffusion estimate
    smallmass diagnose <config> [--out DIR]       moment / decay / increment tables
    smallmass w2 <file-a> <file-b>                distance between two sample files

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure.
"""

import argparse
import os
import sys

from ._version import __version__
from .errors import NumericError, UsageError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smallmass", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"smallmass {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("converge", "simulate-eps", "simulate-limit", "estimate-gk", "diagnose"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the flat JSON configuration")
        p.add_argument("--out", default=None, help="output directory (default: output.dir)")
    w2p = sub.add_parser("w2")
    w2p.add_argument("file_a")
    w2p.add_argument("file_b")
    w2p.add_argument("--seed", type=int, default=0, help="seed for sliced projections")
    return parser


def _out_dir(cfg, override):
    out = override or cfg.values["output.dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:  # a file of that name, or no permission
        raise UsageError(f"cannot create output directory {out}: {err}") from None
    return out


def _cmd_w2(args):
    from .harness import load_sample_file
    from .transport import w2_auto

    a = load_sample_file(args.file_a)
    b = load_sample_file(args.file_b)
    res = w2_auto(a, b, seed=args.seed)
    print(repr(res.value))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 1
    try:
        if args.command == "w2":
            return _cmd_w2(args)
        from . import harness
        from .config import load_config

        cfg = load_config(args.config)
        print(harness.COMMANDS[args.command](cfg, _out_dir(cfg, args.out)))
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
