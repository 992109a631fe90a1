"""End-to-end acceptance checks at their stated tolerances.

Each criterion prints one PASS line when its assertions hold.  The heavy
certification runs are module-scoped fixtures, so every proof executes once
and its pieces are shared by the criteria that inspect it.

Reference enclosures quoted here are published results for the same three
orbits; any sound implementation must overlap them (both enclose the same
true values).  Four printed third-derivative reference entries are known to
be inconsistent with the true values and are covered by a strict xfail at
the end instead of the main overlap check.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from choreocert import kernels as kn
from choreocert.boxes import IntervalVector
from choreocert.convexity import verify_convexity
from choreocert.dynamics import nbody_field
from choreocert.integrator import StepPolicy
from choreocert.interval import Interval
from choreocert.problems import (
    chain6_problem,
    eight_problem,
    gerver_problem,
    phi_jacobian,
    phi_point,
)
from choreocert.rootfind import CertificationJob, certify
from helpers import LinearField, box_with_slab, conservation_containment, flow

pytestmark = pytest.mark.acceptance

EIGHT_X0 = np.array([0.347116768716, 0.532724944657])
GERVER_X = np.array([1.382857, 1.87193510824, 0.584872579881])
CHAIN6_X = np.array([-0.635277524319, 0.140342838651, 0.797833002006,
                     0.100637737317, -2.03152227864])

# Reference result enclosures for the three replays (defect map values,
# derivative matrices, operator images).
REF_EIGHT_PHI = [(-2.107029e-06, -2.106467e-06), (2.974991e-06, 2.976034e-06)]
REF_EIGHT_DPHI = [[(17.622624, 17.643043), (1.809772, 1.827325)],
                  [(-24.868548, -24.848432), (-10.056629, -10.039221)]]
REF_EIGHT_N = [(0.347116886243943, 0.347116889993313),
               (0.532724941587373, 0.532724949187495)]

REF_GERVER_DPHI = [
    [(-0.1664, -0.1657), (0.39070, 0.39119), (0.71771, 0.71790)],
    [(-0.1764, -0.1750), (3.52548, 3.52654), (-0.0968, -0.0964)],
    [(0.87189, 0.87534), (-0.0867, -0.0842), (1.99599, 1.99697)]]
REF_GERVER_PHI = [(-2.87020e-09, -2.26613e-09),
                  (-1.21155e-08, -1.06812e-08),
                  (-5.45542e-08, -5.10016e-08)]
REF_GERVER_K = [(1.382857036247056692, 1.382857041633411832),
                (1.871935113301492981, 1.871935114053588922),
                (0.5848725887384301769, 0.5848725902808686872)]

REF_CHAIN6_K = [(-0.6352775243616679557, -0.6352775242763283314),
                (0.1403428386430521646, 0.1403428386590999943),
                (0.797833001999263769, 0.797833002012834469),
                (0.10063773728817425324, 0.1006377373457752189),
                (-2.031522278710178764, -2.031522278575771612)]

# Convexity reference tables: per step and body, (rate, second, third)
# ranges; entries flagged None are skipped in the overlap check (see the
# strict-xfail test for why).
REF_CONVEXITY = {
    (1, 1): ((0.334402, 0.347118), (15.3592, 17.9897), None),
    (1, 2): ((0.347116, 0.360049), (-16.5013, -14.111), None),
    (1, 3): ((-0.695034, -0.69385), (-0.0682713, 0.269952),
             (-30.969, -26.3718)),
    (2, 1): ((0.32222, 0.334722), (16.7085, 19.6225), None),
    (2, 2): ((0.35972, 0.372882), (-15.2203, -13.0177), None),
    (2, 3): ((-0.695669, -0.69444), (0.126359, 0.472046),
             (-30.9533, -26.1203)),
    (37, 1): ((0.480975, 0.48288), (-3.24824, -3.11737),
              (-2.98453, -0.860616)),
    (37, 2): ((0.904939, 0.922079), (-2.55715, -2.16831),
              (4.35197, 10.6201)),
    (37, 3): ((-0.919428, -0.909617), (2.56371, 3.03259),
              (-3.51203, 3.48564)),
}
# Printed third-derivative entries inconsistent with the true values:
REF_CONVEXITY_DEFECTIVE_THIRD = {
    (1, 1): (136.616, 219.114),
    (1, 2): (119.951, 192.562),
    (2, 1): (155.007, 250.021),
    (2, 2): (105.778, 171.191),
}


def overlaps(iv: Interval, ref: tuple[float, float]) -> bool:
    return max(iv.lo, ref[0]) <= min(iv.hi, ref[1])


def report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@dataclass
class ProofRun:
    problem: object
    candidate: np.ndarray
    box: IntervalVector
    point_eval: object
    jac_eval: object
    outcome: object
    elapsed: float


def _run_proof(problem, candidate, delta, h_point, h_set, order, method):
    t0 = time.perf_counter()
    box = IntervalVector.box(candidate, delta)
    point_policy = StepPolicy(h_point, order)
    set_policy = StepPolicy(h_set, order)
    point_eval = phi_point(problem, candidate, point_policy)
    jac_eval = phi_jacobian(problem, box, set_policy)

    def enclose(x, x_box):
        f_x = (point_eval.value if np.array_equal(x, candidate)
               else phi_point(problem, x, point_policy).value)
        df_X = (jac_eval.jacobian if x_box == box
                else phi_jacobian(problem, x_box, set_policy).jacobian)
        return f_x, df_X

    # no C, as the prover builds it: Krawczyk inverts the first mid DF([X])
    job = CertificationJob(enclose=enclose, x0=candidate, X=box, method=method)
    outcome = certify(job)
    return ProofRun(problem, candidate, box, point_eval, jac_eval, outcome,
                    time.perf_counter() - t0)


@pytest.fixture(scope="module")
def eight_proof():
    return _run_proof(eight_problem(), EIGHT_X0, 1e-6, 0.01, 0.01, 7, "newton")


@pytest.fixture(scope="module")
def gerver_proof():
    return _run_proof(gerver_problem(), GERVER_X, 1e-7, 0.002, 0.002, 6,
                      "krawczyk")


@pytest.fixture(scope="module")
def chain6_proof():
    return _run_proof(chain6_problem(), CHAIN6_X, 1e-9, 0.0025, 0.001, 9,
                      "krawczyk")


@pytest.fixture(scope="module")
def eight_convexity(eight_proof):
    t0 = time.perf_counter()
    cert = verify_convexity(eight_proof.box)
    return cert, time.perf_counter() - t0


class TestCriterion1EightExistence:
    def test_eight_replay(self, eight_proof):
        out = eight_proof.outcome
        assert out.verdict == "UniqueZero"
        assert out.iterations <= 2

        phi_val = eight_proof.point_eval.value
        for i in range(2):
            assert overlaps(phi_val[i], REF_EIGHT_PHI[i]), i
            assert phi_val[i].diam() <= 1e-8

        dphi = eight_proof.jac_eval.jacobian
        for i in range(2):
            for j in range(2):
                assert overlaps(dphi[i, j], REF_EIGHT_DPHI[i][j]), (i, j)

        image = out.operator_image
        assert image.subset_interior(eight_proof.box)
        for i in range(2):
            assert overlaps(image[i], REF_EIGHT_N[i]), i

        assert eight_proof.elapsed <= 120.0
        report(1, f"Eight existence: UniqueZero via interval Newton in "
                  f"{eight_proof.elapsed:.1f}s; defect, derivative, and "
                  f"operator enclosures overlap the reference data")


class TestCriterion2EightConvexity:
    def test_convexity_replay(self, eight_convexity):
        cert, elapsed = eight_convexity
        assert cert.passed, cert.failure
        assert 45 <= cert.steps_checked <= 65
        assert cert.origin_in_first_step
        assert elapsed <= 60.0

        by_key = {(c.step, c.body): c for c in cert.checks}
        body3_first = by_key[(1, 3)]
        assert body3_first.condition == "inflection"
        assert body3_first.derivs.second.contains_zero()
        assert not body3_first.derivs.third.contains_zero()

        for (step, body), (rate_ref, second_ref, third_ref) \
                in REF_CONVEXITY.items():
            gd = by_key[(step, body)].derivs
            assert overlaps(gd.independent_rate, rate_ref), (step, body)
            assert overlaps(gd.second, second_ref), (step, body)
            if third_ref is not None:
                assert overlaps(gd.third, third_ref), (step, body)

        assert by_key[(37, 1)].derivs.axis == "x_of_y"
        report(2, f"Eight convexity: all {cert.steps_checked} steps pass in "
                  f"{elapsed:.1f}s; checked table rows overlap the "
                  f"reference data (third body certified via the "
                  f"inflection route)")


class TestCriterion3GerverExistence:
    def test_gerver_replay(self, gerver_proof):
        out = gerver_proof.outcome
        assert out.verdict == "UniqueZero"
        assert gerver_proof.elapsed <= 1200.0

        phi_val = gerver_proof.point_eval.value
        dphi = gerver_proof.jac_eval.jacobian
        for i in range(3):
            assert overlaps(phi_val[i], REF_GERVER_PHI[i]), i
            for j in range(3):
                assert overlaps(dphi[i, j], REF_GERVER_DPHI[i][j]), (i, j)

        image = out.operator_image
        assert image.subset_interior(gerver_proof.box)
        for i in range(3):
            assert overlaps(image[i], REF_GERVER_K[i]), i
            assert image[i].diam() <= 1e-7
        report(3, f"SuperEight existence: UniqueZero via Krawczyk in "
                  f"{gerver_proof.elapsed:.1f}s; image inside the box and "
                  f"overlapping the reference data, diam K <= 1e-7")


class TestCriterion4Chain6Existence:
    def test_chain6_replay(self, chain6_proof):
        out = chain6_proof.outcome
        assert out.verdict == "UniqueZero"
        assert chain6_proof.elapsed <= 1800.0

        phi_val = chain6_proof.point_eval.value
        for i in range(5):
            assert phi_val[i].diam() <= 1e-9, i
            assert phi_val[i].contains_zero() or abs(phi_val[i].mid()) < 1e-9

        image = out.operator_image
        assert image.subset_interior(chain6_proof.box)
        for i in range(5):
            assert overlaps(image[i], REF_CHAIN6_K[i]), i
        report(4, f"6-chain existence: UniqueZero via Krawczyk in "
                  f"{chain6_proof.elapsed:.1f}s at split step sizes; "
                  f"diam of the defect at the candidate <= 1e-9")


class TestCriterion5OracleContainment:
    def test_closed_forms_and_finite_differences(self):
        t0 = time.perf_counter()
        # harmonic oscillator: quarter period lands on (0, -1) with the
        # quarter rotation as transition
        harm = LinearField(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        s0 = np.array([1.0, 0.0])
        fin, steps = flow(harm, box_with_slab(s0, s0), math.pi / 2, 0.01, 7)
        lo, hi = fin.box()
        assert lo[0] <= 0.0 <= hi[0] and lo[1] <= -1.0 <= hi[1]
        for rec in steps:
            t = rec.t_k
            exact = np.array([math.cos(t), -math.sin(t)])
            assert np.all(rec.tight[0] <= exact) and np.all(exact <= rec.tight[1])
        tl, th = fin.slab.box()
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
        rot = np.array([[c, s], [-s, c]])
        assert np.all(tl <= rot) and np.all(rot <= th)

        # circular two-body orbit: closed form at every step over a period
        om = math.sqrt(2.0)
        f2 = nbody_field(2)
        v = om / 2
        s0 = np.array([0.5, 0, 0, v, -0.5, 0, 0, -v])
        period = 2 * math.pi / om
        fin, steps = flow(f2, box_with_slab(s0, s0), period, 0.01, 7)
        for rec in steps:
            t = rec.t_k
            ct, st = math.cos(om * t), math.sin(om * t)
            exact = np.array([0.5 * ct, 0.5 * st, -v * st, v * ct,
                              -0.5 * ct, -0.5 * st, v * st, -v * ct])
            assert np.all(rec.tight[0] <= exact) and np.all(exact <= rec.tight[1])
        lo, hi = fin.box()
        assert np.all(lo <= s0) and np.all(s0 <= hi)

        # transition columns vs central differences of a nonrigorous flow
        from scipy.integrate import solve_ivp

        def f_np(t, s):
            a, b = f2.eval(s, s)
            return 0.5 * (a + b)

        tl, th = fin.slab.box()
        eps = 1e-6
        for k in range(8):
            e = np.zeros(8)
            e[k] = eps
            up_ = solve_ivp(f_np, (0, period), s0 + e, method="DOP853",
                            rtol=1e-12, atol=1e-13).y[:, -1]
            dn_ = solve_ivp(f_np, (0, period), s0 - e, method="DOP853",
                            rtol=1e-12, atol=1e-13).y[:, -1]
            fd = (up_ - dn_) / (2 * eps)
            assert np.all(tl[:, k] - 1e-4 <= fd) and np.all(fd <= th[:, k] + 1e-4)
        report(5, f"oracle containment: closed forms inside every step "
                  f"enclosure; transition enclosures meet central "
                  f"differences within 1e-4 ({time.perf_counter()-t0:.1f}s)")


class TestCriterion6Conservation:
    def test_conserved_quantities_along_certified_trajectories(
            self, eight_proof, gerver_proof, chain6_proof):
        for run in (eight_proof, gerver_proof, chain6_proof):
            rep = conservation_containment(
                run.problem, run.point_eval.crossing.steps)
            bad = [k for k, ok in rep["contained"].items() if not ok]
            assert not bad, (run.problem.key, bad, rep["worst_gap"])
        report(6, "conservation containment: energy, angular momentum, "
                  "momentum, and center of mass enclosures overlap their "
                  "initial values at every step of all three trajectories")


class TestMethodAgreement:
    @pytest.mark.slow
    def test_eight_certifies_under_both_operators(self, eight_proof):
        # same box, same enclosures, Krawczyk instead of interval Newton
        run = _run_proof(eight_proof.problem, EIGHT_X0, 1e-6, 0.01, 0.01, 7,
                         "krawczyk")
        assert run.outcome.verdict == "UniqueZero"
        assert run.outcome.operator_image.subset_interior(run.box)


class TestCriterion7Exclusion:
    def test_translated_box_is_never_certified(self, eight_proof):
        problem = eight_proof.problem
        shifted = EIGHT_X0 + 0.01
        for delta in (1e-6, 1e-4, 1e-3):
            run = _run_proof(problem, shifted, delta, 0.01, 0.01, 7, "newton")
            assert run.outcome.verdict != "UniqueZero", delta
        tight = _run_proof(problem, shifted, 1e-6, 0.01, 0.01, 7, "newton")
        assert tight.outcome.verdict == "NoZero"
        report(7, "exclusion: the translated box is never certified and a "
                  "small translated box is rigorously excluded (NoZero)")


class TestCriterion8IntervalAlgebra:
    N_CASES = 1_000_000

    def test_bulk_soundness_and_algebra(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20260809)
        n = self.N_CASES

        xs = rng.uniform(-1e6, 1e6, n)
        ys = rng.uniform(-1e6, 1e6, n)
        ys[np.abs(ys) < 1e-12] = 1.0

        # vectorized endpoint computation, exact rational oracle per case
        checks = {
            "add": (kn.add, lambda a, b: a + b, ys),
            "sub": (kn.sub, lambda a, b: a - b, ys),
            "mul": (kn.mul, lambda a, b: a * b, ys),
            "div": (kn.div, lambda a, b: a / b, ys),
        }
        violations = 0
        for name, (kernel, exact_op, yy) in checks.items():
            lo, hi = kernel(xs, xs, yy, yy)
            for i in range(n):
                exact = exact_op(Fraction(xs[i]), Fraction(yy[i]))
                if not Fraction(lo[i]) <= exact <= Fraction(hi[i]):
                    violations += 1
        assert violations == 0

        # inclusion monotonicity and subdistributivity on random intervals
        m = 200_000
        a_lo = rng.uniform(-100, 100, m)
        a_hi = a_lo + rng.uniform(0, 10, m)
        b_lo = rng.uniform(-100, 100, m)
        b_hi = b_lo + rng.uniform(0, 10, m)
        c_lo = rng.uniform(-100, 100, m)
        c_hi = c_lo + rng.uniform(0, 10, m)
        wide_a = (a_lo - 1.0, a_hi + 1.0)

        for op in (kn.add, kn.sub, kn.mul):
            s_lo, s_hi = op(a_lo, a_hi, b_lo, b_hi)
            w_lo, w_hi = op(wide_a[0], wide_a[1], b_lo, b_hi)
            assert np.all(w_lo <= s_lo) and np.all(s_hi <= w_hi), op

        sl, sh = kn.add(b_lo, b_hi, c_lo, c_hi)
        left = kn.mul(a_lo, a_hi, sl, sh)
        ab = kn.mul(a_lo, a_hi, b_lo, b_hi)
        ac = kn.mul(a_lo, a_hi, c_lo, c_hi)
        right = kn.add(ab[0], ab[1], ac[0], ac[1])
        pad = 4 * np.spacing(np.maximum(np.abs(right[0]), np.abs(right[1])))
        assert np.all(right[0] - pad <= left[0])
        assert np.all(left[1] <= right[1] + pad)

        report(8, f"interval algebra: {4 * n} exact-rational soundness "
                  f"cases and {3 * m} monotonicity plus {m} "
                  f"subdistributivity cases, zero violations "
                  f"({time.perf_counter()-t0:.0f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "four printed third-derivative reference entries are inconsistent with "
    "the true curve derivatives: the value at the step start, computed by "
    "hand, by the series recurrences, and by an independent adaptive "
    "integrator, lies well outside them, so no sound enclosure can overlap"))
def test_defective_reference_third_derivatives(eight_convexity):
    cert, _ = eight_convexity
    by_key = {(c.step, c.body): c for c in cert.checks}
    for (step, body), ref in REF_CONVEXITY_DEFECTIVE_THIRD.items():
        assert overlaps(by_key[(step, body)].derivs.third, ref), (step, body)
