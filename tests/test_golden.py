"""The byte-identity corpus: committed outputs that every change must keep.

Each directory of ``tests/golden/`` holds a ``config.json`` and the files
the commands write from it: ``converge.csv``, ``samples_eps.csv``,
``samples_limit.csv``, ``diagnose.csv``, and ``w2.txt``, the stdout of
``smallmass w2 samples_eps.csv samples_limit.csv``.  The test regenerates
them in process, converge at 1 and 2 workers, and compares bytes.  A
change that moves an output byte on purpose re-pins the corpus in the same
commit, so the corpus diff records what moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from smallmass import harness
from smallmass.cli import main as cli_main
from smallmass.config import load_config

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())
COMMANDS = ("converge", "simulate-eps", "simulate-limit", "diagnose")


def regenerate(case: str, out: Path, capture_w2) -> None:
    """Write every corpus file of ``case`` to ``out``; ``capture_w2(argv)``
    runs the CLI's w2 command and returns its stdout."""
    cfg = load_config(GOLDEN / case / "config.json")
    for command in COMMANDS:
        harness.COMMANDS[command](cfg, str(out))
    (out / "w2.txt").write_text(capture_w2(
        ["w2", str(out / "samples_eps.csv"), str(out / "samples_limit.csv")]))


def corpus_files(case: str) -> list:
    return sorted(p.name for p in (GOLDEN / case).iterdir() if p.name != "config.json")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", CASES)
def test_outputs_keep_their_bytes(case, workers, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.WORKERS_ENV, workers)

    def capture_w2(argv):
        capsys.readouterr()
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    if workers == "1":
        regenerate(case, tmp_path, capture_w2)
        names = corpus_files(case)
    else:
        # The pool changes only the scheduling of converge's batches.
        harness.COMMANDS["converge"](load_config(GOLDEN / case / "config.json"),
                                     str(tmp_path))
        names = ["converge.csv"]
    assert "converge.csv" in names
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), \
            (case, workers, name)


if __name__ == "__main__":
    import contextlib
    import io

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli_main(argv) != 0:
                raise SystemExit(f"w2 failed: {argv}")
        return buf.getvalue()

    for case in CASES:
        regenerate(case, GOLDEN / case, capture)
        print(f"re-pinned tests/golden/{case}: {', '.join(corpus_files(case))}",
              file=sys.stderr)
