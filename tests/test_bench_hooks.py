"""The benchmark finds the package's functions by name; keep those names."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from choreocert.cli import DEFAULTS  # noqa: E402
from choreocert.problems import make_problem  # noqa: E402
from perfbench.tracing import SPANS  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", SPANS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in SPANS])
def test_span_targets_resolve(owner, attr, span):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
def test_replay_problems_build(system):
    problem = make_problem(system, a_text=DEFAULTS[system]["a"])
    assert problem.reduced_dim == len(DEFAULTS[system]["candidate"])


@pytest.mark.slow
def test_smoke_run_is_correct():
    # The harness wraps `integrator.step` and `flow_to_section` by name and
    # checks the step, series and check counts of a real run.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
