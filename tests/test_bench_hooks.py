"""The benchmark finds the package's functions by name; keep those names."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

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
