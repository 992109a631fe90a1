"""The benchmark finds the package's functions by name; keep those names."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from choreocert import convexity, dynamics, integrator, kernels  # noqa: E402
from choreocert.boxes import IntervalVector  # noqa: E402
from choreocert.cli import DEFAULTS  # noqa: E402
from choreocert.problems import make_problem  # noqa: E402
from perfbench.tracing import KERNELS, SPANS  # noqa: E402


@pytest.mark.parametrize("owner, attr, span", SPANS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in SPANS])
def test_span_targets_resolve(owner, attr, span):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
def test_replay_problems_build(system):
    problem = make_problem(system, a_text=DEFAULTS[system]["a"])
    assert problem.reduced_dim == len(DEFAULTS[system]["candidate"])


@pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
@pytest.mark.parametrize("carry_transition", [True, False], ids=["C1", "C0"])
def test_one_series_pass_per_step(system, carry_transition, monkeypatch):
    # `dynamics.series_per_step` counts the series built outside `eval`:
    # the center, the box and the rough box share one batched pass
    outside_eval = []
    depth = [0]
    series, evaluate = dynamics.GravityField.series, dynamics.GravityField.eval

    def counted_series(self, *args, **kwargs):
        if depth[0] == 0:
            outside_eval.append(args)
        return series(self, *args, **kwargs)

    def nested_eval(self, *args, **kwargs):
        depth[0] += 1
        try:
            return evaluate(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(dynamics.GravityField, "series", counted_series)
    monkeypatch.setattr(dynamics.GravityField, "eval", nested_eval)
    d = DEFAULTS[system]
    problem = make_problem(system, a_text=d["a"])
    box = IntervalVector.box(np.array(d["candidate"]), d["delta"])
    start = problem.embed_slab(box, carry_transition)
    integrator.step(problem.field, start, d["h"], d["order"])
    assert len(outside_eval) == 1


def test_convexity_checks_in_one_kernel_pass(monkeypatch):
    # `convexity.check_step_us` divides the checking time by the rows: the
    # derivatives and graph lanes of all checked steps take one array pass,
    # so the kernel calls outside the flow do not grow with the step count
    calls, in_flow = [0], [0]
    flow = convexity.flow_to_section

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += not in_flow[0]
            return fn(*args, **kwargs)
        return wrapper

    def uncounted_flow(*args, **kwargs):
        in_flow[0] += 1
        try:
            return flow(*args, **kwargs)
        finally:
            in_flow[0] -= 1

    for name in KERNELS:
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
    monkeypatch.setattr(convexity, "flow_to_section", uncounted_flow)
    d = DEFAULTS["eight"]
    box = IntervalVector.box(np.array(d["candidate"]), d["delta"])
    counts = {}
    order = convexity.POLICY.order
    for h in (0.01, 0.005):
        calls[0] = 0
        monkeypatch.setattr(convexity, "POLICY",
                            integrator.StepPolicy(h, order))
        cert = convexity.verify_convexity(box)
        assert cert.passed, cert.failure
        counts[cert.steps_checked] = calls[0]
    assert list(counts) == [53, 106]
    assert counts[53] == counts[106] > 0


@pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
def test_gradient_pass_kernel_calls_do_not_grow_with_the_order(system,
                                                               monkeypatch):
    # `kernels.dot_calls_per_step`: z (x) z and (z (x) z) * p take one
    # Cauchy contraction each over all layers, so the gradient pass makes
    # the same kernel calls at every order; a per-layer loop would add two
    # contractions a layer
    calls, contractions, inside = [0], [0], [0]
    build = dynamics.GravitySeries._build_gradient_layers

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[0] += inside[0]
            contractions[0] += inside[0] and name in ("dot", "cauchy")
            return fn(*args, **kwargs)
        return wrapper

    def counted_build(self):
        inside[0] += 1
        try:
            return build(self)
        finally:
            inside[0] -= 1

    for name in KERNELS:
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    monkeypatch.setattr(dynamics.GravitySeries, "_build_gradient_layers",
                        counted_build)
    d = DEFAULTS[system]
    problem = make_problem(system, a_text=d["a"])
    s = problem.embed_point(np.array(d["candidate"]))
    counts = {}
    for order in (7, 14, 18):
        calls[0] = contractions[0] = 0
        problem.field.series(s, s, order, variational=True)
        counts[order] = (calls[0], contractions[0])
    assert counts[7] == counts[14] == counts[18]
    assert counts[7][1] == 2


@pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
def test_state_pass_makes_at_most_nine_kernel_calls_a_layer(system,
                                                            monkeypatch):
    # `kernels.calls_per_step`: each added layer costs the state pass one
    # division, z, u, the stacked power closures' one weighted sum for
    # both p and s (scale, dot, mul, div_int) and the acceleration (dot,
    # matvec); the gradient pass adds none, and a variational series stops
    # its gradient layers at the ones the transition layers up to its
    # order read.  A field value, an order-1 series, divides by nothing and
    # forms no -1/u0.
    calls = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in KERNELS:
        monkeypatch.setattr(kernels, name, counted(getattr(kernels, name)))
    d = DEFAULTS[system]
    problem = make_problem(system, a_text=d["a"])
    s = problem.embed_point(np.array(d["candidate"]))
    for variational in (False, True):
        counts = {}
        for order in (7, 14):
            calls[0] = 0
            ser = problem.field.series(s, s, order, variational=variational)
            counts[order] = calls[0]
            if variational:
                assert ser.grad_lo.shape[0] == ser.grad_hi.shape[0] == order
        assert (counts[14] - counts[7]) / 7 <= 9, (variational, counts)
    calls[0] = 0
    problem.field.eval(s, s)
    assert calls[0] <= 10, calls[0]


@pytest.mark.slow
def test_smoke_run_is_correct():
    # The harness wraps `integrator.step` and `flow_to_section` by name and
    # checks the step, series and check counts of a real run.
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
