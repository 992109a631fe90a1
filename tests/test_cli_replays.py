"""Command-line replays with the documented flag spellings, determinism of
certificate documents, and a comma list of systems proved in turn."""

import json
import random

import numpy as np
import pytest

from choreocert import kernels as kn
from choreocert.boxes import IntervalMatrix, IntervalVector, midpoint_inverse
from choreocert.certificates import (parse_document, read_step_policy,
                                     rebuild_problem)
from choreocert.cli import DEFAULTS, EXIT_INCONCLUSIVE, EXIT_OK, main
from choreocert.curves import _segment_midpoints, unfold
from choreocert.interval import Interval
from choreocert.problems import phi_jacobian

# Tightness ratchet at the replay defaults, also for the candidates moved by
# +-delta/4: chain6 reads 0.00496 and gerver, on its antipodal half,
# 0.001965 over the default candidate and the two corners, at their
# tolerances of 3e-15 and 5e-15; the Eight's Newton image grows with the
# candidate's distance from the zero (4.9e-8 at the default candidate, the
# certified zero, and 0.000559 at both corners).
DEFAULT_RATIO = {"eight": 0.00076, "gerver": 0.00375, "chain6": 0.0087}
# The widest entry of the defect at the candidate, which rides the set flow
# as a box to the section zone: 3.9e-13, 1.49e-12 and 1.13e-12 at the three
# defaults.
DEFAULT_PHI_WIDTH = 2e-12
# Count ratchet: the set steps of the default proofs.
DEFAULT_SET_STEPS = {"eight": 19, "gerver": 50, "chain6": 50}


def max_phi_width(body) -> float:
    phi = IntervalVector.from_hex(body["phi_at_candidate"])
    return float(np.max(phi.diam()))


def max_image_box_ratio(body) -> float:
    """The largest width ratio of an operator image to its box."""
    return max(float(np.max(IntervalVector.from_hex(rec["image"]).diam()
                            / IntervalVector.from_hex(rec["X"]).diam()))
               for rec in body["trace"])


def assert_candidate_in_refined_box(system, body):
    """The default candidate is the certified zero: it lies in the refined
    box of its own default proof."""
    refined = IntervalVector.from_hex(body["refined_box"])
    candidate = np.array(DEFAULTS[system]["candidate"])
    assert [float.fromhex(v) for v in body["candidate"]] == list(candidate)
    assert np.all((refined.lo <= candidate) & (candidate <= refined.hi))


def prove_unique(system, path, *flags):
    """The body of a UniqueZero document that `verify` agrees with."""
    assert main(["prove", "--system", system, *flags,
                 "--out", str(path)]) == EXIT_OK
    assert main(["verify", "--cert", str(path), "--quiet"]) == EXIT_OK
    body = parse_document(path.read_text())
    assert body["verdict"] == "UniqueZero"
    return body


@pytest.mark.slow
class TestVerbatimInvocations:
    def test_gerver_flags(self, tmp_path):
        body = prove_unique("gerver", tmp_path / "gerver.cert",
                            "--method", "krawczyk", "--h", "0.002",
                            "--order", "6", "--delta", "1e-7")
        assert body["method"] == "krawczyk"
        # an explicit --h gives every step that one size
        assert body["parameters"]["tolerance"] is None
        assert set(body["step_sizes"]) == {body["parameters"]["h"]}
        # tightness ratchet: a change that widens the image says so
        assert max_image_box_ratio(body) <= 0.0200

    def test_chain6_flags(self, tmp_path):
        body = prove_unique("chain6", tmp_path / "chain6.cert",
                            "--method", "krawczyk", "--h", "0.001",
                            "--order", "9")
        assert float.fromhex(body["parameters"]["h"]) == 0.001
        assert "h_point" not in body["parameters"]
        assert "h_set" not in body["parameters"]
        assert max_image_box_ratio(body) <= 0.0270

    def test_eight_defaults(self, tmp_path):
        body = prove_unique("eight", tmp_path / "eight.cert")
        assert max_image_box_ratio(body) <= DEFAULT_RATIO["eight"]
        assert max_phi_width(body) <= DEFAULT_PHI_WIDTH
        assert body["step_counts"]["set"] <= DEFAULT_SET_STEPS["eight"]
        assert_candidate_in_refined_box("eight", body)
        assert float.fromhex(body["parameters"]["h"]) == DEFAULTS["eight"]["h"]
        assert body["parameters"]["order"] == DEFAULTS["eight"]["order"]
        # no tolerance: every step takes the one size h
        assert body["parameters"]["tolerance"] is None
        assert set(body["step_sizes"]) == {body["parameters"]["h"]}

    @pytest.mark.parametrize("system", ["gerver", "chain6"])
    def test_defaults(self, system, tmp_path):
        body = prove_unique(system, tmp_path / f"{system}.cert")
        assert max_image_box_ratio(body) <= DEFAULT_RATIO[system]
        assert max_phi_width(body) <= DEFAULT_PHI_WIDTH
        assert body["step_counts"]["set"] <= DEFAULT_SET_STEPS[system]
        assert_candidate_in_refined_box(system, body)
        assert float.fromhex(body["parameters"]["h"]) == DEFAULTS[system]["h"]
        assert body["parameters"]["order"] == DEFAULTS[system]["order"]
        # the first step is h, and the tolerance sizes the others
        assert body["parameters"]["tolerance"] == DEFAULTS[system]["tol"].hex()
        assert body["step_sizes"][0] == body["parameters"]["h"]
        assert len(set(body["step_sizes"])) > 1
        # the point flows afresh from the set flow's first zone step, its
        # crossing time shifted to the set's clock, so it crosses when the
        # set does
        point, set_ = (Interval.from_hex(*body[f"crossing_time_{k}"])
                       for k in ("point", "set"))
        assert not point.disjoint(set_) and point.diam() < set_.diam()
        # the Krawczyk preconditioner is the midpoint inverse of the first
        # derivative enclosure, bit for bit, and every iteration keeps it
        assert body["method"] == "krawczyk"
        C = midpoint_inverse(IntervalMatrix.from_hex(body["dphi_on_box"]))
        assert body["preconditioner"] == [[v.hex() for v in row] for row in C]
        assert all(rec["C"] == body["preconditioner"] for rec in body["trace"])

    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_a_tiny_box_about_the_default_candidate(self, system, tmp_path):
        # the candidate is the certified zero, so a box of half-width 1e-12
        # about it still holds a zero, which a box about the published
        # digits misses
        prove_unique(system, tmp_path / f"{system}.cert", "--delta", "1e-12")

    def test_generic_chain_four_bodies(self, tmp_path):
        # the four-body chain in generic coordinates (vx0, x1, vy1)
        out = tmp_path / "chain4.cert"
        code = main(["prove", "--system", "chain", "--bodies", "4",
                     "--a", "0.157029944461", "--method", "krawczyk",
                     "--h", "0.002", "--order", "6", "--delta", "1e-7",
                     "--candidate", "1.87193510824,1.382857,0.584872579881",
                     "--out", str(out)])
        assert code == EXIT_OK
        body = parse_document(out.read_text())
        assert body["verdict"] == "UniqueZero"
        # the certificate's problem id "chain4" rebuilds the problem
        assert main(["emit-curve", "--cert", str(out),
                     "--out", str(tmp_path / "chain4.curve")]) == EXIT_OK


@pytest.mark.slow
class TestRetriesAndStops:
    @pytest.mark.parametrize("system", ["gerver", "chain6"])
    def test_collision_on_a_picard_candidate_halves_h(self, system,
                                                     tmp_path):
        # at h 0.05 a Picard candidate of a step reaches a collision: the
        # rough enclosure fails, and the retry halves h until a proof holds
        body = prove_unique(system, tmp_path / f"{system}.cert",
                            "--h", "0.05")
        assert float.fromhex(body["parameters"]["h"]) < 0.05

    def test_singular_stop_is_a_document_verify_agrees_with(self, tmp_path):
        # the Eight's box of half-width 1e-3 has a derivative enclosure whose
        # pivot holds zero: the stop is the trace's one record
        path = tmp_path / "eight.cert"
        assert main(["prove", "--system", "eight", "--delta", "1e-3",
                     "--out", str(path)]) == EXIT_INCONCLUSIVE
        assert main(["verify", "--cert", str(path), "--quiet"]) == EXIT_OK
        body = parse_document(path.read_text())
        assert [rec["relation"] for rec in body["trace"]] == ["singular"]
        assert body["cause"].startswith(
            "derivative enclosure not certifiably regular: pivot interval")


@pytest.mark.slow
class TestJitteredDefaults:
    # the benchmark moves each candidate coordinate within +-delta/4
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_corner_candidates(self, system, sign, tmp_path):
        d = DEFAULTS[system]
        corner = ",".join(repr(c + sign * d["delta"] / 4)
                          for c in d["candidate"])
        body = prove_unique(system, tmp_path / f"{system}.cert",
                            f"--candidate={corner}")
        assert max_image_box_ratio(body) <= DEFAULT_RATIO[system]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("system", ["eight", "gerver", "chain6"])
    def test_seeded_interior_candidates(self, system, seed, tmp_path):
        # the ratios stay at the defaults' over seeds 1-10 (the Eight's up
        # to 0.00051, gerver's 0.001965, chain6's 0.00495-0.00496), but only
        # the verdict and the verifier are asserted
        d = DEFAULTS[system]
        rng = random.Random(seed)
        q = d["delta"] / 4
        jittered = ",".join(repr(c + rng.uniform(-q, q))
                            for c in d["candidate"])
        prove_unique(system, tmp_path / f"{system}.cert",
                     f"--candidate={jittered}")


def strip_wall_clock(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if "wall_clock" not in line)


class TestDeterminism:
    def test_identical_flags_give_identical_documents(self, tmp_path):
        args = ["prove", "--system", "eight", "--method", "newton",
                "--h", "0.01", "--order", "7", "--delta", "1e-6"]
        a = tmp_path / "a.cert"
        b = tmp_path / "b.cert"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert strip_wall_clock(a.read_text()) == strip_wall_clock(b.read_text())
        assert a.read_text() != "" and b.read_text() != ""

    def test_chain_with_six_bodies_is_chain6(self, tmp_path):
        # one key, one problem: "chain" with 6 bodies is the key "chain6",
        # whose document `verify` and `emit-curve` rebuild
        flags = ["--a", "1.887041548253914", "--method", "krawczyk",
                 "--h", "0.008", "--order", "18", "--delta", "1e-9",
                 "--candidate=" + ",".join(map(repr,
                                               DEFAULTS["chain6"]["candidate"]))]
        a = tmp_path / "chain.cert"
        b = tmp_path / "chain6.cert"
        assert main(["prove", "--system", "chain", "--bodies", "6", *flags,
                     "--out", str(a)]) == EXIT_OK
        assert main(["prove", "--system", "chain6", *flags,
                     "--out", str(b)]) == EXIT_OK
        assert parse_document(a.read_text())["verdict"] == "UniqueZero"
        assert strip_wall_clock(a.read_text()) == strip_wall_clock(b.read_text())


@pytest.mark.slow
class TestCommaList:
    def test_two_systems_in_turn(self, tmp_path):
        code = main(["prove", "--system", "eight,gerver",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        for name in ("eight.cert", "gerver.cert"):
            body = parse_document((tmp_path / name).read_text())
            assert body["verdict"] == "UniqueZero"


class TestRoundingEnv:
    def test_certificates_record_the_backend(self, tmp_path):
        out = tmp_path / "e.cert"
        assert main(["prove", "--system", "eight", "--out", str(out)]) == EXIT_OK
        body = json.loads(out.read_text().split("\n# ")[0])
        assert body["environment"]["rounding_backend"] == "directed"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Documents of the default replays, the Eight by Krawczyk, the Eight's
    NoZero candidate (+0.01), the four-body chain and the convexity check,
    with the curve and segment files `emit-curve` writes for each existence
    document that proves a zero."""
    d = tmp_path_factory.mktemp("zeros")
    no_zero = ",".join(repr(c + 0.01) for c in DEFAULTS["eight"]["candidate"])
    runs = {  # name: (system, flags)
        "eight": ("eight", []), "gerver": ("gerver", []),
        "chain6": ("chain6", []),
        "eight-krawczyk": ("eight", ["--method", "krawczyk"]),
        "eight-nozero": ("eight", [f"--candidate={no_zero}",
                                   "--expect-no-zero"]),
        "chain4": ("chain", ["--bodies", "4", "--a", "0.157029944461",
                             "--method", "krawczyk", "--h", "0.002",
                             "--order", "6", "--delta", "1e-7", "--candidate",
                             "1.87193510824,1.382857,0.584872579881"]),
    }
    for name, (system, flags) in runs.items():
        assert main(["prove", "--system", system, *flags,
                     "--out", str(d / f"{name}.cert")]) == EXIT_OK
    assert main(["convexity", "--cert", str(d / "eight.cert"),
                 "--out", str(d / "convexity.cert")]) == EXIT_OK
    for name in ("eight", "gerver", "chain6", "chain4"):
        assert main(["emit-curve", "--cert", str(d / f"{name}.cert"),
                     "--out", str(d / f"{name}.curve"),
                     "--segment-out", str(d / f"{name}.segment")]) == EXIT_OK
    return d


@pytest.mark.slow
class TestSignedZeros:
    # round-down turns an exact cancellation into -0; the value types store
    # it as +0, so no output writes a zero with the sign the kernels left
    def test_documents_write_no_negative_zero(self, outputs):
        docs = sorted(outputs.glob("*.cert"))
        assert len(docs) == 7
        for path in docs:
            assert "-0x0.0p+0" not in path.read_text(), path.name
            assert main(["verify", "--cert", str(path), "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("name", ["eight", "gerver", "chain6", "chain4"])
    def test_curve_samples_carry_no_negative_zero(self, outputs, name):
        # the curve and segment files are decimal: their samples are the
        # flow's midpoints, which the symmetries of the orbit then map, and
        # a map can negate a zero
        path = outputs / f"{name}.cert"
        body = parse_document(path.read_text())
        problem = rebuild_problem(body["problem"]["id"],
                                  body["problem"]["size_parameter"])
        crossing = phi_jacobian(problem,
                                IntervalVector.from_hex(body["refined_box"]),
                                read_step_policy(body["parameters"])).crossing
        _, samples = _segment_midpoints(crossing)
        assert not np.any((samples == 0.0) & np.signbit(samples))
        # each written sample has a sign exactly when it is below zero and
        # reads as nonzero, so neither a zero nor a tiny negative is written
        # as "-0.000..."
        result = unfold(problem, crossing)
        for suffix, values in (("curve", result.curve),
                               ("segment", result.segment)):
            rows = [line.split() for line in
                    (outputs / f"{name}.{suffix}").read_text().splitlines()
                    if not line.startswith("#")]
            assert len(rows) == len(values) > 0
            signed = np.array([[tok.startswith("-") for tok in row]
                               for row in rows])
            written = np.array([[float(tok) for tok in row] for row in rows])
            assert np.array_equal(signed, (values < 0.0) & (written != 0.0)), \
                suffix

    def test_value_types_store_positive_zero(self):
        lo, hi = kn.sub(np.array([0.1]), np.array([0.1]),
                        np.array([0.1]), np.array([0.1]))
        assert np.signbit(lo[0]) and lo[0] == 0.0
        assert Interval(lo[0], hi[0]).to_hex() == ("0x0.0p+0", "0x0.0p+0")
        assert IntervalVector(lo, hi).to_hex() == [["0x0.0p+0", "0x0.0p+0"]]
        assert IntervalMatrix(lo[None], hi[None]).to_hex() == [
            [["0x0.0p+0", "0x0.0p+0"]]]
