"""`refine`: plain Newton on the validated map at a thin box, and the
field's Jacobian against a float walk over its terms."""

import numpy as np
import pytest

from choreocert import cli
from choreocert.cli import DEFAULTS, main
from choreocert.errors import Diverged, RoughEnclosureFailure
from choreocert.integrator import StepPolicy
from choreocert.problems import (
    chain6_problem,
    eight_problem,
    gerver_problem,
    make_problem,
    monodromy_preconditioner,
    refine_candidate,
)
from helpers import phi_point_alone

EIGHT_X0 = np.array(DEFAULTS["eight"]["candidate"])
EIGHT_PUBLISHED = np.array([0.347116768716, 0.532724944657])
GERVER_X = np.array(DEFAULTS["gerver"]["candidate"])
CHAIN6_X = np.array(DEFAULTS["chain6"]["candidate"])


def policy(key: str) -> StepPolicy:
    """The step policy `refine` runs a system under."""
    d = DEFAULTS[key]
    return StepPolicy(d["h"], d["order"], d["tol"])


class TestPointPhi:
    # the validated map at the reference candidates, thin
    def test_eight_candidate_defect_is_tiny(self):
        # the published digits, 1.2e-7 from the zero
        ev = phi_point_alone(eight_problem(), EIGHT_PUBLISHED,
                             policy("eight"))
        assert np.max(np.abs(ev.value.mid())) < 1e-5
        assert ev.crossing.t_cross.mid() == pytest.approx(0.5271592126,
                                                          abs=1e-8)
        # the default candidate is the certified zero
        ev = phi_point_alone(eight_problem(), EIGHT_X0, policy("eight"))
        assert np.max(np.abs(ev.value.mid())) < 1e-12

    def test_gerver_candidate_is_essentially_fixed(self):
        ev = phi_point_alone(gerver_problem(), GERVER_X, policy("gerver"))
        assert np.max(np.abs(ev.value.mid())) < 1e-7

    def test_chain6_candidate(self):
        ev = phi_point_alone(chain6_problem(), CHAIN6_X, policy("chain6"))
        assert np.max(np.abs(ev.value.mid())) < 1e-9
        # a twelfth of the period 2 pi
        assert ev.crossing.t_cross.mid() == pytest.approx(np.pi / 6, abs=1e-6)


class TestRefine:
    def test_eight_from_rough_seed(self):
        # The default candidate is the certified zero, and the published
        # digits sit ~1.2e-7 away from it: the refiner must land in the
        # published Newton box, next to the candidate.
        refined = refine_candidate(eight_problem(), [0.35, 0.53],
                                   policy("eight"))
        assert np.max(np.abs(refined - EIGHT_X0)) < 3e-7
        assert 0.347116886243943 <= refined[0] <= 0.347116889993313
        assert 0.532724941587373 <= refined[1] <= 0.532724949187495

    def test_gerver_fixed_point(self):
        refined = refine_candidate(gerver_problem(), GERVER_X,
                                   policy("gerver"))
        assert np.max(np.abs(refined - GERVER_X)) < 1e-7

    def test_chain6_from_a_nudged_candidate(self):
        refined = refine_candidate(chain6_problem(), CHAIN6_X + 1e-4,
                                   policy("chain6"))
        assert np.max(np.abs(refined - CHAIN6_X)) < 1e-10

    def test_garbage_guess_diverges(self):
        # the flow from (10, 10) runs into a collision: no Picard candidate
        # of the step that reaches it validates, which refine reports
        with pytest.raises(Diverged) as info:
            refine_candidate(eight_problem(), [10.0, 10.0], policy("eight"))
        assert isinstance(info.value.__cause__, RoughEnclosureFailure)

    def test_chain_with_six_bodies_is_chain6(self, capsys):
        guess = ",".join(map(repr, DEFAULTS["chain6"]["candidate"]))
        assert main(["refine", "--system", "chain6", f"--guess={guess}"]) == 0
        named = capsys.readouterr().out
        assert main(["refine", "--system", "chain", "--bodies", "6",
                     "--a", "1.887041548253914", f"--guess={guess}"]) == 0
        assert capsys.readouterr().out == named


class TestPreconditioner:
    def test_gerver_monodromy_inverse_matches_reference(self):
        _, C = monodromy_preconditioner(gerver_problem(), GERVER_X,
                                        policy("gerver"))
        reference = np.array([
            [-2.15400, 0.257911, 0.786925],
            [-0.08163, 0.293713, 0.043565],
            [0.939059, -0.10027, 0.158399]])
        # reference entries are printed with 5-6 significant decimals
        assert np.max(np.abs(C - reference)) < 1e-5

    def test_cli_spans_the_newton_step(self):
        # perfbench/tracing.py spans refine's Newton step by its cli name
        assert cli.monodromy_preconditioner is monodromy_preconditioner


def loop_float_jacobian(problem, s):
    """The field's Jacobian at a state in floats, by a walk over the terms."""
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
    def test_inside_the_interval_jacobian(self, system):
        # at a thin state the term walk lies in the series' enclosure up to
        # its own rounding
        problem = make_problem(system)
        s0 = problem.embed_point(np.array(DEFAULTS[system]["candidate"]))
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = s0 + rng.normal(0.0, 1e-2, s0.size)
            jl, jh = problem.field.series(s, s, 1, variational=True).jacobian()
            J = loop_float_jacobian(problem, s)
            slack = 1e-13 * max(1.0, np.max(np.abs(J)))
            assert np.all(jl - slack <= J) and np.all(J <= jh + slack)
