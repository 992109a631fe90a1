"""Reference runs of the command line, for a neutrality check between two
trees.

    PYTHONPATH=src python tests/reference_runs.py OUTDIR

runs each of `runs(dir)` through `cli.main` in process, in a temporary
directory, and writes to OUTDIR each file a run wrote, without its
`wall_clock_seconds` line, and `summary.txt`: one line per run with its
exit code and, for each certificate, whether `verify` agrees with it.
`diff -r` of the OUTDIRs of two trees then shows every field a change
moved.  Pytest does not collect this file; `test_cli_replays.py` checks
the run list.
"""

import sys
import tempfile
from pathlib import Path

from choreocert.cli import DEFAULTS, EXIT_OK, main

SYSTEMS = ("eight", "gerver", "chain6")


def _moved(system: str, by: float) -> str:
    """--candidate with every coordinate of the default moved by `by`."""
    return "--candidate=" + ",".join(repr(c + by)
                                     for c in DEFAULTS[system]["candidate"])


def runs(out) -> list[tuple[str, list[str]]]:
    """(name, argv) of each run, writing into the directory `out`: the
    default proofs, their candidates moved to the +-delta/4 corners, the
    Eight by Krawczyk, its NoZero candidate (+0.01), its published h and
    order, its singular stop (delta 1e-3) and a box of half-width 1e-14,
    gerver and chain6 at their published h and order, then the Eight's
    convexity document and the curve and segment files of the three
    defaults, each after the proof it reads."""
    proofs = [(system, system, []) for system in SYSTEMS]
    proofs += [(f"{system}-corner{'+-'[sign < 0]}", system,
                [_moved(system, sign * DEFAULTS[system]["delta"] / 4)])
               for system in SYSTEMS for sign in (1, -1)]
    proofs += [
        ("eight-krawczyk", "eight", ["--method", "krawczyk"]),
        ("eight-nozero", "eight", [_moved("eight", 0.01), "--expect-no-zero"]),
        ("eight-h0.01-order7", "eight", ["--h", "0.01", "--order", "7"]),
        ("eight-delta1e-3", "eight", ["--delta", "1e-3"]),
        ("eight-delta1e-14", "eight", ["--delta", "1e-14"]),
        ("gerver-h0.002-order6", "gerver", ["--h", "0.002", "--order", "6"]),
        ("chain6-h0.001-order9", "chain6", ["--h", "0.001", "--order", "9"]),
    ]
    out = Path(out)
    listed = [(name, ["prove", "--system", system, *flags,
                      "--out", str(out / f"{name}.cert")])
              for name, system, flags in proofs]
    listed.append(("eight-convexity",
                   ["convexity", "--cert", str(out / "eight.cert"),
                    "--out", str(out / "eight-convexity.cert")]))
    listed += [(f"{system}-curve",
                ["emit-curve", "--cert", str(out / f"{system}.cert"),
                 "--out", str(out / f"{system}.curve"),
                 "--segment-out", str(out / f"{system}.segment")])
               for system in SYSTEMS]
    return listed


def outputs(argv: list[str]) -> list[Path]:
    """The files a run writes: the values of its --out and --segment-out."""
    return [Path(argv[i + 1]) for i, arg in enumerate(argv)
            if arg in ("--out", "--segment-out")]


def run_all(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    with tempfile.TemporaryDirectory() as work:
        for name, argv in runs(work):
            line = f"{name}: exit {main(argv)}"
            for path in filter(Path.exists, outputs(argv)):
                (out / path.name).write_text("".join(
                    row for row in path.read_text().splitlines(keepends=True)
                    if '"wall_clock_seconds"' not in row))
                if path.suffix == ".cert":
                    agrees = main(["verify", "--cert", str(path),
                                   "--quiet"]) == EXIT_OK
                    line += (f", {path.name} "
                             f"{'AGREES' if agrees else 'DISAGREES'}")
            summary.append(line + "\n")
    (out / "summary.txt").write_text("".join(summary))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUTDIR")
    run_all(Path(sys.argv[1]))
