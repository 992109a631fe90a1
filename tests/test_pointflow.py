import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import choreocert
from choreocert.cli import DEFAULTS
from choreocert.errors import Diverged
from choreocert.pointflow import (
    _float_jacobian,
    monodromy_preconditioner,
    point_phi,
    refine_candidate,
)
from choreocert.problems import (
    chain6_problem,
    eight_problem,
    gerver_problem,
    make_problem,
)

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])
GERVER_X = np.array([1.382857, 1.87193510824, 0.584872579881])


class TestPointPhi:
    def test_eight_candidate_defect_is_tiny(self):
        value, t_end = point_phi(eight_problem(), EIGHT_X0)
        assert np.max(np.abs(value)) < 1e-5
        assert t_end == pytest.approx(0.5271592126, abs=1e-8)

    def test_gerver_candidate_is_essentially_fixed(self):
        value, _ = point_phi(gerver_problem(), GERVER_X)
        assert np.max(np.abs(value)) < 1e-7

    def test_chain6_candidate(self):
        x = np.array([-0.635277524319, 0.140342838651, 0.797833002006,
                      0.100637737317, -2.03152227864])
        value, t_end = point_phi(chain6_problem(), x)
        assert np.max(np.abs(value)) < 1e-9
        assert t_end == pytest.approx(np.pi / 6, abs=1e-6)


class TestRefine:
    def test_eight_from_rough_seed(self):
        # The reference candidate sits ~1.2e-7 away from the true zero (its
        # own certified Newton box shows this), so the refiner must land in
        # that box rather than on the candidate itself.
        refined = refine_candidate(eight_problem(), [0.35, 0.53])
        assert np.max(np.abs(refined - EIGHT_X0)) < 3e-7
        assert 0.347116886243943 <= refined[0] <= 0.347116889993313
        assert 0.532724941587373 <= refined[1] <= 0.532724949187495

    def test_gerver_fixed_point(self):
        refined = refine_candidate(gerver_problem(), GERVER_X, iters=3,
                                   tol=1e-7)
        assert np.max(np.abs(refined - GERVER_X)) < 1e-7

    def test_garbage_guess_diverges(self):
        with pytest.raises(Diverged):
            refine_candidate(eight_problem(), [10.0, 10.0], iters=4)


class TestPreconditioner:
    def test_gerver_monodromy_inverse_matches_reference(self):
        C = monodromy_preconditioner(gerver_problem(), GERVER_X)
        reference = np.array([
            [-2.15400, 0.257911, 0.786925],
            [-0.08163, 0.293713, 0.043565],
            [0.939059, -0.10027, 0.158399]])
        # reference entries are printed with 5-6 significant decimals
        assert np.max(np.abs(C - reference)) < 1e-5


def loop_float_jacobian(problem, s):
    """The Jacobian by a walk over the terms: the reference the scatter
    reproduces bit for bit."""
    layout = problem.field.layout
    G = np.zeros((2 * layout.n_bodies,) * 2)
    q = s[layout.qsel]
    for term in problem.field.terms:
        zx = sum(c * q[2 * b] for b, c in term.coeffs)
        zy = sum(c * q[2 * b + 1] for b, c in term.coeffs)
        u = zx * zx + zy * zy
        dt = u ** -1.5 * np.eye(2) - 3.0 * u ** -2.5 * np.outer((zx, zy), (zx, zy))
        for b, sgn in term.receivers:
            for c, coef in term.coeffs:
                G[2 * b:2 * b + 2, 2 * c:2 * c + 2] += sgn * coef * dt
    return layout.field_jacobian(G)


class TestFloatJacobian:
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_equals_the_term_walk(self, system):
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        jac = _float_jacobian(problem)
        s0 = problem.embed_point(np.array(d["candidate"]))
        rng = np.random.default_rng(5)
        for _ in range(300):
            s = s0 + rng.normal(0.0, 0.3, s0.size)
            assert np.array_equal(jac(s), loop_float_jacobian(problem, s))

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_inside_the_interval_jacobian(self, system):
        # the float and interval Jacobians share the field's term scatter;
        # at a thin state the float one lies in the enclosure up to rounding
        d = DEFAULTS[system]
        problem = make_problem(system, a_text=d["a"])
        jac = _float_jacobian(problem)
        s0 = problem.embed_point(np.array(d["candidate"]))
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = s0 + rng.normal(0.0, 1e-2, s0.size)
            jl, jh = problem.field.series(s, s, 1, variational=True).jacobian()
            J = jac(s)
            slack = 1e-13 * max(1.0, np.max(np.abs(J)))
            assert np.all(jl - slack <= J) and np.all(J <= jh + slack)


def loaded_by_cli_import(*names: str, argv=None) -> list[str]:
    """Those of the named modules that a fresh `import choreocert.cli`
    loads, followed by `choreocert.cli.main(argv)` when argv is given."""
    src = str(Path(choreocert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, choreocert.cli\n"
    if argv is not None:
        code += f"assert choreocert.cli.main({argv!r}) == 0\n"
    code += f"print(' '.join(m for m in {names!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1].split()


def test_cli_import_does_not_load_scipy_integrate():
    # verify, convexity and emit-curve never integrate in floats, so only
    # point_phi imports the solver
    assert loaded_by_cli_import("scipy.integrate") == []


def test_krawczyk_proof_does_not_load_scipy_integrate(tmp_path):
    # the Krawczyk preconditioner is the midpoint inverse of the proof's own
    # derivative enclosure, so prove never integrates in floats
    argv = ["prove", "--system", "gerver", "--out", str(tmp_path / "g.cert")]
    assert loaded_by_cli_import("scipy.integrate", argv=argv) == []


def test_cli_import_does_not_load_a_process_pool():
    # prove runs the systems of a comma list in turn, in this process
    assert loaded_by_cli_import("multiprocessing",
                                "concurrent.futures.process") == []
