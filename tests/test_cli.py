import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import choreocert
from choreocert import cli, convexity, integrator, kernels, problems
from choreocert.boxes import IntervalVector
from choreocert.certificates import (ProofCertificate, parse_document,
                                     reverify_document)
from choreocert.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTEGRATOR,
    EXIT_NO_ZERO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_DISAGREE,
    main,
)
from choreocert.errors import (GluingMismatch, NoCrossing,
                               RoughEnclosureFailure, RoundingModeError)
from choreocert.integrator import StepPolicy, flow_to_section
from choreocert.problems import make_problem
from choreocert.rootfind import CertificationJob
from helpers import FE_TONEAREST, fegetround


@pytest.fixture(scope="module")
def eight_cert(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "eight.cert"
    code = main(["prove", "--system", "eight", "--method", "newton",
                 "--h", "0.01", "--order", "7", "--delta", "1e-6",
                 "--out", str(path)])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def eight_convexity_cert(eight_cert, tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "convexity.cert"
    assert main(["convexity", "--cert", str(eight_cert),
                 "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def moved_refined_box(eight_cert, tmp_path):
    """The Eight certificate with its refined box moved by 2e-7."""
    body = parse_document(eight_cert.read_text())
    body["refined_box"] = [[(float.fromhex(lo) + 2e-7).hex(),
                            (float.fromhex(hi) + 2e-7).hex()]
                           for lo, hi in body["refined_box"]]
    path = tmp_path / "moved.cert"
    path.write_text(json.dumps(body))
    return path


def verify_edited(path, tmp_path, edit) -> int:
    body = parse_document(path.read_text())
    edit(body)
    bad = tmp_path / "edited.cert"
    bad.write_text(json.dumps(body))
    return main(["verify", "--cert", str(bad), "--quiet"])


class TestProve:
    def test_eight_replay_flags(self, eight_cert):
        text = eight_cert.read_text()
        assert '"verdict": "UniqueZero"' in text
        # tightness ratchet: a change that widens the image says so
        (rec,) = parse_document(text)["trace"]
        ratio = np.max(IntervalVector.from_hex(rec["image"]).diam()
                       / IntervalVector.from_hex(rec["X"]).diam())
        assert ratio <= 0.000256

    def test_eight_records_crossing_validity_note(self, eight_cert):
        from choreocert.certificates import parse_document
        from choreocert.interval import Interval
        body = parse_document(eight_cert.read_text())
        # the reduction needs the first body away from the origin on the
        # section; the certificate records the verified distance enclosure
        note = body["crossing_notes"]["first_body_distance_squared"]
        dist2 = Interval.from_hex(*note)
        assert dist2.lo > 1.0  # crossing happens near radius 1.08

    def test_point_rides_the_set_flow_at_equal_steps(self, eight_cert):
        body = parse_document(eight_cert.read_text())
        counts = body["step_counts"]
        assert 0 < counts["point"] < counts["set"]

    def test_a_point_outside_the_box_is_refused(self, monkeypatch):
        # each step clips the ridden point's box to the set's, which is
        # sound only for a point of X: the map refuses any other before it
        # flows
        def flow(*args):
            raise AssertionError("a flow started")

        monkeypatch.setattr(problems, "flow_to_section", flow)
        monkeypatch.setattr(cli, "certify",
                            lambda job: job.enclose(job.X.hi + 1e-9, job.X))
        candidate = np.array(cli.DEFAULTS["eight"]["candidate"])
        with pytest.raises(ValueError, match="outside the box"):
            cli.run_certification(make_problem("eight"), "newton",
                                  StepPolicy(0.01, 7), 1e-6, candidate)

    def test_a_tiny_box_hands_the_point_off_in_the_zone(self, tmp_path):
        # at delta 1e-14 every halving of h from the default 0.03 / 18 stays
        # inconclusive, and the point rides to the zone in each: its own
        # flow is the hand-off alone, however small the set's box
        path = tmp_path / "tiny.cert"
        assert main(["prove", "--system", "eight", "--delta", "1e-14",
                     "--out", str(path)]) == EXIT_INCONCLUSIVE
        counts = parse_document(path.read_text())["step_counts"]
        assert 1 <= counts["point"] <= 3 < counts["set"]
        assert main(["verify", "--cert", str(path), "--quiet"]) == EXIT_OK

    def test_retry_halves_every_controlled_step(self, monkeypatch, tmp_path,
                                                capsys):
        # h halves, and the tolerance by 2^(R+1), so each chosen size halves
        seen = []

        def failing(**params):
            seen.append(params["policy"])
            raise RoughEnclosureFailure("no validated enclosure")

        monkeypatch.setattr(cli, "run_certification", failing)
        assert main(["prove", "--system", "gerver",
                     "--out", str(tmp_path / "g.cert")]) == EXIT_INTEGRATOR
        d = cli.DEFAULTS["gerver"]
        r1 = d["order"] + 1
        assert [(p.h, p.tol) for p in seen] == [
            (d["h"] / 2 ** i, d["tol"] / 2 ** (r1 * i)) for i in range(4)]
        assert "retries exhausted" in capsys.readouterr().err

    def test_retries_end_at_the_step_budget(self, monkeypatch, tmp_path,
                                            capsys):
        # half of 1.5e-5 is below the 1e-5 the policy's budget allows
        seen = []

        def failing(**params):
            seen.append(params["policy"].h)
            raise RoughEnclosureFailure("no validated enclosure")

        monkeypatch.setattr(cli, "run_certification", failing)
        out = tmp_path / "e.cert"
        assert main(["prove", "--system", "eight", "--h", "1.5e-5",
                     "--out", str(out)]) == EXIT_INTEGRATOR
        assert seen == [1.5e-5]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "retries exhausted" in err
        assert not out.exists()

    def test_an_inconclusive_run_at_the_step_budget_keeps_its_document(
            self, monkeypatch, tmp_path, capsys):
        # the policy refuses to halve 1.5e-5, so the first Inconclusive
        # attempt is the last: it writes its document and exits 2, as after
        # the third halving.  The run itself is the Eight's at delta 1e-14
        # and the default h, which stays Inconclusive
        seen, run = [], cli.run_certification
        d = cli.DEFAULTS["eight"]

        def at_the_default_h(**params):
            seen.append(params["policy"].h)
            return run(**dict(params, policy=StepPolicy(d["h"], d["order"])))

        monkeypatch.setattr(cli, "run_certification", at_the_default_h)
        out = tmp_path / "e.cert"
        assert main(["prove", "--system", "eight", "--h", "1.5e-5",
                     "--delta", "1e-14", "--out", str(out)]) == EXIT_INCONCLUSIVE
        assert seen == [1.5e-5]
        assert "retries exhausted" not in capsys.readouterr().err
        assert parse_document(out.read_text())["verdict"] == "Inconclusive"
        assert main(["verify", "--cert", str(out), "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("flags, controlled", [
        ([], True), (["--h", "0.005"], False), (["--order", "8"], False),
        (["--h", "0.005", "--order", "8"], False),
    ], ids=["defaults", "h", "order", "both"])
    def test_tolerance_only_at_the_default_h_and_order(
            self, flags, controlled, monkeypatch, tmp_path):
        # the tolerance was set for the default pair, so either option
        # given makes a one-size run
        seen = []

        def failing(**params):
            seen.append(params["policy"].tol)
            raise NoCrossing("stop")

        monkeypatch.setattr(cli, "run_certification", failing)
        assert main(["prove", "--system", "gerver", *flags,
                     "--out", str(tmp_path / "g.cert")]) == EXIT_INTEGRATOR
        assert seen == [cli.DEFAULTS["gerver"]["tol"] if controlled else None]

    @pytest.mark.parametrize("argv, policy", [
        (["prove", "--system", "eight", "--delta", "1e200"], None),
        # too coarse a step for the certified box: the flow fails
        (["convexity", "--cert", "{eight_cert}"], StepPolicy(0.1, 7)),
    ], ids=["prove", "convexity"])
    def test_overflowing_box_is_an_integration_failure(self, argv, policy,
                                                       eight_cert, tmp_path,
                                                       capsys, monkeypatch):
        argv = [a.format(eight_cert=eight_cert) for a in argv]
        if policy is not None:
            monkeypatch.setattr(convexity, "POLICY", policy)
        out = tmp_path / "out.cert"
        assert main(argv + ["--out", str(out)]) == EXIT_INTEGRATOR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: ")
        assert not out.exists()

    def test_repeated_system_is_usage_error(self, tmp_path, capsys):
        # both proofs would write one file
        assert main(["prove", "--system", "eight,eight",
                     "--out", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "prove: --system names a system twice: eight,eight\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("systems", [",", "", " "],
                             ids=["comma", "empty", "blank"])
    def test_empty_system_list_is_usage_error(self, systems, tmp_path,
                                              capsys):
        # refused before the output directory is made
        out = tmp_path / "d"
        assert main(["prove", "--system", systems,
                     "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"prove: --system names no system: {systems!r}\n"
        assert not out.exists()

    def test_unknown_system_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove"])  # --system required
        assert exc.value.code == EXIT_USAGE
        assert main(["prove", "--system", "chain"]) == EXIT_USAGE
        assert main(["refine", "--system", "nonsense",
                     "--guess", "1,2"]) == EXIT_USAGE
        assert main(["refine", "--system", "chain", "--bodies", "4",
                     "--guess", "1,2,3"]) == EXIT_USAGE

    def test_expected_no_zero(self, tmp_path):
        shifted = [0.347116768716 + 0.01, 0.532724944657 + 0.01]
        args = ["prove", "--system", "eight", "--method", "newton",
                "--h", "0.01", "--order", "7", "--delta", "1e-6",
                "--candidate", ",".join(repr(v) for v in shifted),
                "--out", str(tmp_path / "off.cert")]
        assert main(args) == EXIT_NO_ZERO
        assert main(args + ["--expect-no-zero"]) == EXIT_OK

    def test_non_finite_start_field_is_refused_once(self, tmp_path, capsys):
        # the field overflows at the start set: one refusal before any step,
        # no numpy warning and no step-size retry
        out = tmp_path / "out.cert"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["prove", "--system", "gerver", "--a", "1e300",
                         "--out", str(out)])
        assert code == EXIT_INTEGRATOR
        err = capsys.readouterr().err
        assert err == ("prove: invalid field over the start set: "
                       "endpoints not finite/ordered\n")
        assert not out.exists()


class TestVerify:
    def test_verify_agrees(self, eight_cert):
        assert main(["verify", "--cert", str(eight_cert), "--quiet"]) == EXIT_OK

    def test_verify_detects_tampering(self, eight_cert, tmp_path):
        import json
        from choreocert.certificates import parse_document
        body = parse_document(eight_cert.read_text())
        body["verdict"] = "NoZero"
        bad = tmp_path / "tampered.cert"
        bad.write_text(json.dumps(body))
        assert main(["verify", "--cert", str(bad),
                     "--quiet"]) == EXIT_VERIFY_DISAGREE

    def test_verify_checks_the_problem_shape(self, eight_cert, tmp_path):
        def reshape(body):
            body["problem"].update(n_bodies=7, reduced_dim=9,
                                   reduced_names=["q"])
        assert verify_edited(eight_cert, tmp_path,
                             reshape) == EXIT_VERIFY_DISAGREE

    def test_main_builds_one_parser_per_process(self, eight_cert,
                                                monkeypatch, capsys):
        # a refused command line and the calls around it share one parser
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(None) or build())
        cli._parser.cache_clear()
        verify = ["verify", "--cert", str(eight_cert), "--quiet"]
        assert main(verify) == EXIT_OK
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quiet"])
        assert exc.value.code == EXIT_USAGE
        assert "required: --cert" in capsys.readouterr().err
        assert main(verify) == EXIT_OK
        assert len(built) == 1

    def test_an_option_does_not_carry_over_to_the_next_call(self, eight_cert,
                                                            capsys):
        cert = str(eight_cert)
        assert main(["verify", "--cert", cert, "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == "verify: AGREES\n"
        assert main(["verify", "--cert", cert]) == EXIT_OK
        *checks, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "verify: AGREES" and checks
        assert all(line.startswith("ok   ") for line in checks)


class TestRoundingProbe:
    # a mode setter that changes nothing leaves the kernels at
    # round-to-nearest, and one that fails is fesetround refusing the mode:
    # either way no command runs
    @pytest.mark.parametrize("setter", [lambda mode: 0, lambda mode: -1],
                             ids=["no-effect", "refused"])
    @pytest.mark.parametrize("command", ["prove", "verify"])
    def test_every_command_exits_4(self, command, setter, eight_cert,
                                   tmp_path, monkeypatch, capsys):
        argv = (["prove", "--system", "eight", "--out",
                 str(tmp_path / "e.cert")] if command == "prove"
                else ["verify", "--cert", str(eight_cert)])
        monkeypatch.setattr(kernels, "_fesetround", setter)
        assert main(argv) == EXIT_INTEGRATOR
        out, err = capsys.readouterr()
        assert "AGREES" not in out
        assert len(err.splitlines()) == 1
        assert err.startswith(f"{command}: ") and "round-down" in err
        assert not (tmp_path / "e.cert").exists()

    # a setter that refuses or ignores round-up only: the lower ends still
    # round down, and each upper end must not be computed at round-down
    @pytest.mark.parametrize("answer", [-1, 0], ids=["refused", "ignored"])
    def test_round_up_refused_or_ignored(self, answer, eight_cert,
                                         monkeypatch, capsys):
        real = kernels._fesetround
        monkeypatch.setattr(kernels, "_fesetround", lambda mode: (
            answer if mode == kernels._UP else real(mode)))
        one = np.array([1.0])
        for call in (kernels.check_rounding,
                     lambda: kernels.add(one, one, one, one)):
            with pytest.raises(RoundingModeError, match="round-up"):
                call()
            assert fegetround() == FE_TONEAREST
        assert main(["verify", "--cert", str(eight_cert)]) == EXIT_INTEGRATOR
        out, err = capsys.readouterr()
        assert "AGREES" not in out
        assert err.startswith("verify: ") and "round-up" in err
        assert fegetround() == FE_TONEAREST

    # arithmetic that ignores a mode which fesetround reports set, and which
    # the switch's own one-float check misses (made blind here by a _TINY
    # that rounds in no mode): the probe's 64-lane cases must catch it
    @pytest.mark.parametrize("ignored, direction", [
        ((kernels._DOWN, kernels._UP), "down"), ((kernels._UP,), "up")])
    def test_the_probe_catches_arithmetic_the_switch_check_misses(
            self, ignored, direction, monkeypatch):
        real = kernels._fesetround
        monkeypatch.setattr(kernels, "_fesetround", lambda mode: (
            0 if mode in ignored else real(mode)))
        monkeypatch.setattr(kernels, "_TINY", 0.5)
        one = np.array([1.0])
        kernels.add(one, one, one, one)      # the blind switch passes
        with pytest.raises(RoundingModeError,
                           match=f"^\\+ ignores round-{direction} "):
            kernels.check_rounding()
        assert fegetround() == FE_TONEAREST


class TestDecimalRendering:
    # the comment block is the writer's rendering of the verified body, or
    # absent: it cannot state what the body does not
    @pytest.fixture(scope="class")
    def no_zero_cert(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("certs") / "off.cert"
        shifted = [v + 0.01 for v in cli.DEFAULTS["eight"]["candidate"]]
        assert main(["prove", "--system", "eight",
                     "--candidate", ",".join(map(repr, shifted)),
                     "--expect-no-zero", "--out", str(path)]) == EXIT_OK
        return path

    @staticmethod
    def verify_text(text, tmp_path) -> int:
        path = tmp_path / "edited.cert"
        path.write_text(text)
        return main(["verify", "--cert", str(path), "--quiet"])

    def test_honest_documents_agree(self, no_zero_cert, eight_cert,
                                    eight_convexity_cert, tmp_path):
        for path in (no_zero_cert, eight_cert, eight_convexity_cert):
            text = path.read_text()
            assert "# --- decimal rendering" in text
            assert self.verify_text(text, tmp_path) == EXIT_OK
            body_only = json.dumps(parse_document(text))
            assert self.verify_text(body_only + "\n", tmp_path) == EXIT_OK

    def test_relabelled_verdict(self, no_zero_cert, tmp_path):
        text = no_zero_cert.read_text()
        assert text.count("verdict: NoZero\n") == 1
        forged = text.replace("verdict: NoZero\n", "verdict: UniqueZero\n")
        assert self.verify_text(forged, tmp_path) == EXIT_VERIFY_DISAGREE

    def test_changed_step_count_on_the_pass_line(self, eight_convexity_cert,
                                                 tmp_path):
        text = eight_convexity_cert.read_text()
        assert text.count(": PASS over 53 steps at h=0.01") == 1
        forged = text.replace(": PASS over 53 steps", ": PASS over 52 steps")
        assert self.verify_text(forged, tmp_path) == EXIT_VERIFY_DISAGREE

    @pytest.mark.parametrize("fixture", ["no_zero_cert",
                                         "eight_convexity_cert"])
    def test_dropped_comment_line(self, fixture, request, tmp_path):
        lines = request.getfixturevalue(fixture).read_text().splitlines(True)
        assert lines[-1].startswith("# ")
        forged = "".join(lines[:-1])
        assert self.verify_text(forged, tmp_path) == EXIT_VERIFY_DISAGREE


class TestEmitCurve:
    def test_eight_curve(self, eight_cert, tmp_path):
        out = tmp_path / "curve.txt"
        seg = tmp_path / "segment.txt"
        code = main(["emit-curve", "--cert", str(eight_cert),
                     "--out", str(out), "--segment-out", str(seg)])
        assert code == EXIT_OK
        data = np.loadtxt(out)
        assert data.shape[1] == 3
        # closed curve through the origin, two lobes
        r = np.hypot(data[:, 1], data[:, 2])
        assert r.min() < 1e-12
        # reflection symmetry of the sample set to 1e-9
        from scipy.spatial import cKDTree
        tree = cKDTree(data[:, 1:3])
        for mirrored in (data[:, 1:3] * [1, -1], data[:, 1:3] * [-1, 1]):
            dist, _ = tree.query(mirrored)
            assert dist.max() < 1e-9
        segdata = np.loadtxt(seg)
        assert segdata.shape[1] == 7

    def test_forged_certificate_is_not_unfolded(self, moved_refined_box,
                                                tmp_path, capsys):
        code = main(["emit-curve", "--cert", str(moved_refined_box),
                     "--out", str(tmp_path / "curve.txt")])
        assert code == EXIT_VERIFY_DISAGREE
        assert "FAIL refined box" in capsys.readouterr().err
        assert not (tmp_path / "curve.txt").exists()

    def test_unfolding_failure_is_an_integration_failure(
            self, eight_cert, tmp_path, monkeypatch, capsys):
        def mismatch(problem, crossing):
            raise GluingMismatch("junction residual y1 excludes 0")

        monkeypatch.setattr(cli, "unfold", mismatch)
        out = tmp_path / "curve.txt"
        assert main(["emit-curve", "--cert", str(eight_cert),
                     "--out", str(out)]) == EXIT_INTEGRATOR
        assert capsys.readouterr().err == (
            "emit-curve: junction residual y1 excludes 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda params: params.update(h="0x0p+0"),
        lambda params: params.update(order=0),
    ], ids=["zero-h", "order-zero"])
    def test_unusable_parameters_are_not_unfolded(self, eight_cert, tmp_path,
                                                  capsys, edit):
        body = parse_document(eight_cert.read_text())
        edit(body["parameters"])
        bad = tmp_path / "edited.cert"
        bad.write_text(json.dumps(body))
        assert main(["verify", "--cert", str(bad),
                     "--quiet"]) == EXIT_VERIFY_DISAGREE
        assert "verify: DISAGREES" in capsys.readouterr().out
        code = main(["emit-curve", "--cert", str(bad),
                     "--out", str(tmp_path / "curve.txt")])
        assert code == EXIT_VERIFY_DISAGREE
        err = capsys.readouterr().err
        assert "FAIL problem and parameters" in err
        assert "Traceback" not in err
        assert not (tmp_path / "curve.txt").exists()

    def test_tiny_step_size_is_not_unfolded(self, eight_cert, tmp_path,
                                            capsys):
        # h and every step size 1e-320 (10/h overflows) or 1e-300 (a flow
        # of 1e301 steps): past the budget of 10^6 steps the step policy
        # refuses the document before any flow
        for h in (1e-320, 1e-300):
            body = parse_document(eight_cert.read_text())
            tiny = h.hex()
            body["parameters"]["h"] = tiny
            body["step_sizes"] = [tiny] * len(body["step_sizes"])
            bad = tmp_path / "tiny.cert"
            bad.write_text(json.dumps(body))
            assert main(["verify", "--cert", str(bad)]) == EXIT_VERIFY_DISAGREE
            out = capsys.readouterr().out
            assert "FAIL problem and parameters" in out and "10/h" in out
            assert main(["emit-curve", "--cert", str(bad),
                         "--out", str(tmp_path / "curve.txt")]) \
                == EXIT_VERIFY_DISAGREE
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "curve.txt").exists()


class TestUnreadableCertPath:
    @pytest.mark.parametrize("command", ["verify", "convexity", "emit-curve"])
    def test_missing_path_is_a_usage_error(self, command, tmp_path, capsys):
        args = [command, "--cert", str(tmp_path / "missing.cert")]
        if command != "verify":
            args += ["--out", str(tmp_path / "out.txt")]
        assert main(args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{command}: [Errno 2] No such file")
        assert list(tmp_path.iterdir()) == []


class TestUnusableNumbers:
    # exit 64 before any work: an explicit value is never swapped for a
    # default, and no unusable one reaches the integrator
    @pytest.mark.parametrize("argv", [
        ["prove", "--system", "eight", "--delta", "0"],
        ["prove", "--system", "eight", "--h", "-0.01"],
        ["prove", "--system", "eight", "--h", "nan"],
        ["prove", "--system", "eight", "--h", "inf"],
        ["prove", "--system", "eight", "--order", "-1"],
        # 10/h overflows: no step budget
        ["prove", "--system", "eight", "--h", "1e-320"],
        # a budget of 1e301 steps, past the 10^6 a flow may take
        ["prove", "--system", "eight", "--h", "1e-300"],
    ], ids=["delta-zero", "h-negative", "h-nan", "h-inf", "order-negative",
            "h-tiny", "h-past-the-budget"])
    def test_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out.cert"
        assert main(argv + ["--out", str(out)]) == EXIT_USAGE
        option = argv[-2]
        err = capsys.readouterr().err
        assert err.startswith(f"{argv[0]}: {option} must")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--h-point", "--h-set"])
    def test_one_step_size_option(self, option, tmp_path, capsys):
        # a proof has one step size: argparse knows no point or set step
        out = tmp_path / "out.cert"
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--system", "eight", option, "0.0025",
                  "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["prove", "--system", "eight", "--jobs", "2"],
        ["convexity", "--cert", "eight.cert", "--no-inline"],
        ["convexity", "--cert", "eight.cert", "--delta", "1e-6"],
        ["convexity", "--cert", "eight.cert", "--candidate", "0.35,0.53"],
        ["convexity", "--cert", "eight.cert", "--h", "0.005"],
        ["convexity", "--cert", "eight.cert", "--order", "7"],
        ["emit-curve", "--cert", "eight.cert", "--h", "0.01"],
        ["emit-curve", "--cert", "eight.cert", "--order", "7"],
        ["prove", "--system", "eight", "--max-iter", "-1"],
        ["prove", "--system", "eight", "--max-steps", "0"],
        ["refine", "--system", "eight", "--guess", "0.35,0.53",
         "--iters", "0"],
    ], ids=["prove-jobs", "convexity-no-inline", "convexity-delta",
            "convexity-candidate", "convexity-h", "convexity-order",
            "emit-curve-h", "emit-curve-order", "prove-max-iter",
            "prove-max-steps", "refine-iters"])
    def test_removed_option(self, argv, tmp_path, capsys):
        # systems are proved in turn, convexity reads the box of a
        # certificate and runs at the published h and order, a curve flows
        # at its certificate's h and order, and no run sets an iteration
        # cap, a step budget or a refinement count
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["prove", "--system", "eight", "--h", "x"],
        ["convexity", "--out", "conv.cert"],
        ["verify"],
    ], ids=["h-not-a-number", "convexity-without-cert", "verify-without-cert"])
    def test_rejected_command_line(self, argv, tmp_path, monkeypatch, capsys):
        # argparse's own exit code 2 would read as inconclusive
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_help_is_no_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["convexity", "--help"])
        assert exc.value.code == 0
        assert "--cert" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["refine", "--system", "eight", "--guess", "nan,nan"],
        ["prove", "--system", "eight", "--candidate", "inf,0.5"],
        ["prove", "--system", "eight", "--a", "0.3"],
        ["refine", "--system", "eight", "--a", "0.3", "--guess", "0.35,0.53"],
        ["prove", "--system", "chain6", "--bodies", "8"],
        ["refine", "--system", "gerver", "--bodies", "4",
         "--guess", "1.38,1.87,0.58"],
        ["prove", "--system", "gerver", "--a", ""],
    ], ids=["refine-nan-guess", "prove-inf-candidate", "prove-eight-a",
            "refine-eight-a", "prove-chain6-bodies", "refine-gerver-bodies",
            "prove-gerver-empty-a"])
    def test_input_the_run_cannot_use_or_does_not_read(self, argv, tmp_path,
                                                       monkeypatch, capsys):
        # a non-finite coordinate would reach the solver; an --a or
        # --bodies that make_problem ignores would prove another system
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{argv[0]}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["prove", "--system", "eight", "--candidate", "0.35"],
        ["refine", "--system", "eight", "--guess", "0.35"],
    ], ids=["prove", "refine"])
    def test_candidate_of_the_wrong_length(self, argv, tmp_path, capsys):
        if argv[0] != "refine":
            argv = argv + ["--out", str(tmp_path / "out.cert")]
        assert main(argv) == EXIT_USAGE
        assert "coordinates, not 2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOptions:
    def test_option_inventory(self):
        # every knob is counted: a new one takes an edit here, and the
        # parser main shares lists the same options as a new one
        def inventory(parser):
            (sub,) = (a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
            return {name: [a.option_strings[0] for a in p._actions
                           if not isinstance(a, argparse._HelpAction)]
                    for name, p in sub.choices.items()}
        options = inventory(cli.build_parser())
        assert inventory(cli._parser()) == options
        assert options == {
            "prove": ["--system", "--bodies", "--method", "--h", "--order",
                      "--delta", "--a", "--candidate", "--out",
                      "--expect-no-zero"],
            "convexity": ["--cert", "--out"],
            "refine": ["--system", "--bodies", "--a", "--guess"],
            "emit-curve": ["--cert", "--out", "--segment-out"],
            "verify": ["--cert", "--quiet"],
        }
        assert sum(map(len, options.values())) == 21
        # and so is every value a library caller can set
        knobs = {name: list(inspect.signature(fn).parameters)
                 for name, fn in (("StepPolicy", StepPolicy),
                                  ("CertificationJob", CertificationJob),
                                  ("flow_to_section", flow_to_section),
                                  ("step", integrator.step),
                                  ("phi_point", problems.phi_point),
                                  ("phi_jacobian", problems.phi_jacobian),
                                  ("verify_convexity",
                                   convexity.verify_convexity),
                                  ("ProofCertificate", ProofCertificate))}
        assert knobs == {
            "StepPolicy": ["h", "order", "tol", "given"],
            "CertificationJob": ["enclose", "x0", "X", "method", "C"],
            "flow_to_section": ["field", "start", "section", "policy"],
            "step": ["field", "cur", "h", "order", "t_start"],
            "phi_point": ["problem", "along", "policy"],
            "phi_jacobian": ["problem", "X", "policy", "point"],
            "verify_convexity": ["certified_box"],
            "ProofCertificate": ["problem", "job", "outcome", "policy",
                                 "delta", "point", "set",
                                 "wall_clock_seconds"],
        }


class TestRefine:
    def test_refine_eight(self, capsys):
        code = main(["refine", "--system", "eight", "--guess", "0.35,0.53"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.3471168" in out

    def test_refined_digits_are_a_candidate_prove_reads_exactly(self, capsys):
        # the decimal line is repr digits: read back, it is the hex line's
        # floats, so it passes to --candidate without rounding
        assert main(["refine", "--system", "eight",
                     "--guess", "0.35,0.53"]) == EXIT_OK
        lines = dict(line.split(":", 1) for line in
                     capsys.readouterr().out.splitlines()[1:])
        decimal = cli._parse_vector(lines["  decimal"], 2)
        assert [float.fromhex(v) for v in lines["  hex"].split(",")] \
            == list(decimal)

    def test_refine_garbage_diverges(self):
        assert main(["refine", "--system", "eight",
                     "--guess", "10,10"]) == EXIT_INTEGRATOR

    @pytest.mark.parametrize("command, option", [("refine", "--guess"),
                                                 ("prove", "--candidate")])
    def test_a_vector_may_start_with_a_minus_sign(self, command, option):
        # chain6's candidate starts with -0.63: a value, not an option
        value = ",".join(map(repr, cli.DEFAULTS["chain6"]["candidate"]))
        assert value.startswith("-0.63")
        args = cli.build_parser().parse_args(
            [command, "--system", "chain6", option, value])
        assert vars(args)[option[2:]] == value

    def test_an_option_in_place_of_the_guess_is_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["refine", "--system", "eight", "--guess", "-x"])
        assert exc.value.code == EXIT_USAGE
        assert "--guess: expected one argument" in capsys.readouterr().err

    def test_overflowing_field_diverges(self, capsys):
        # the field is not finite over the start set: one diverged line
        guess = ",".join(map(repr, cli.DEFAULTS["gerver"]["candidate"]))
        assert main(["refine", "--system", "gerver", "--a", "1e300",
                     "--guess", guess]) == EXIT_INTEGRATOR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("refine: diverged")


class TestConvexityCommand:
    def test_from_certificate(self, eight_cert, tmp_path):
        out = tmp_path / "conv.cert"
        code = main(["convexity", "--cert", str(eight_cert),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert main(["verify", "--cert", str(out), "--quiet"]) == EXIT_OK

    def test_wrong_certificate_kind(self, tmp_path, eight_cert):
        conv = tmp_path / "c.cert"
        assert main(["convexity", "--cert", str(eight_cert),
                     "--out", str(conv)]) == EXIT_OK
        assert main(["convexity", "--cert", str(conv)]) == EXIT_USAGE

    def test_forged_certificate_is_rejected(self, moved_refined_box,
                                            tmp_path, capsys):
        out = tmp_path / "conv.cert"
        code = main(["convexity", "--cert", str(moved_refined_box),
                     "--out", str(out)])
        assert code == EXIT_VERIFY_DISAGREE
        assert "FAIL refined box" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedDocuments:
    # every command that reads a certificate reports DISAGREES, exit 1
    def test_convexity_document_without_checks(self, eight_convexity_cert,
                                               tmp_path, capsys):
        def drop(body):
            del body["checks"]
        assert verify_edited(eight_convexity_cert, tmp_path,
                             drop) == EXIT_VERIFY_DISAGREE
        assert "verify: DISAGREES" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["trace", "refined_box", "problem"])
    def test_existence_document_without_a_field(self, eight_cert, tmp_path,
                                                field):
        body = parse_document(eight_cert.read_text())
        del body[field]
        bad = tmp_path / "edited.cert"
        bad.write_text(json.dumps(body))
        for args in (["verify", "--cert", str(bad), "--quiet"],
                     ["convexity", "--cert", str(bad),
                      "--out", str(tmp_path / "conv.cert")],
                     ["emit-curve", "--cert", str(bad),
                      "--out", str(tmp_path / "curve.txt")]):
            assert main(args) == EXIT_VERIFY_DISAGREE, args

    def test_truncated_file(self, eight_cert, tmp_path, capsys):
        text = eight_cert.read_text()
        bad = tmp_path / "truncated.cert"
        bad.write_text(text[:len(text) // 2])
        assert main(["verify", "--cert", str(bad)]) == EXIT_VERIFY_DISAGREE
        assert "FAIL malformed document" in capsys.readouterr().out
        assert main(["convexity", "--cert", str(bad), "--out",
                     str(tmp_path / "conv.cert")]) == EXIT_VERIFY_DISAGREE
        assert main(["emit-curve", "--cert", str(bad), "--out",
                     str(tmp_path / "curve.txt")]) == EXIT_VERIFY_DISAGREE
        assert not (tmp_path / "conv.cert").exists()
        assert not (tmp_path / "curve.txt").exists()


@pytest.fixture(scope="module")
def failing_convexity_cert(eight_cert, tmp_path_factory):
    """The Eight convexity document when step 5, body 2 is too coarse."""
    from choreocert import convexity

    real = convexity.condition_holds

    def coarse_at_step_5_body_2(step, body, *derivs):
        return real(step, body, *derivs) & ~((step == 5) & (body == 2))

    path = tmp_path_factory.mktemp("certs") / "failing.cert"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convexity, "condition_holds", coarse_at_step_5_body_2)
        assert main(["convexity", "--cert", str(eight_cert),
                     "--out", str(path)]) == EXIT_INCONCLUSIVE
    return path


def respelled(hex_text: str) -> str:
    """The same float with one more trailing zero in its mantissa."""
    assert float.fromhex(hex_text.replace("p", "0p")) == float.fromhex(hex_text)
    return hex_text.replace("p", "0p")


class TestConvexityVerify:
    # the honest document AGREES: TestConvexityCommand.test_from_certificate
    def test_truncated_rows(self, eight_convexity_cert, tmp_path):
        def truncate(body):
            body["checks"] = body["checks"][:3]
        assert verify_edited(eight_convexity_cert, tmp_path,
                             truncate) == EXIT_VERIFY_DISAGREE

    def test_dropped_body_row(self, eight_convexity_cert, tmp_path):
        def drop(body):
            del body["checks"][7]
        assert verify_edited(eight_convexity_cert, tmp_path,
                             drop) == EXIT_VERIFY_DISAGREE

    def test_duplicated_row(self, eight_convexity_cert, tmp_path):
        def duplicate(body):
            body["checks"].insert(5, body["checks"][4])
        assert verify_edited(eight_convexity_cert, tmp_path,
                             duplicate) == EXIT_VERIFY_DISAGREE

    def test_rows_and_step_count_cut_together(self, eight_convexity_cert,
                                              tmp_path):
        # consistent rows that stop one step short of the crossing time
        def cut(body):
            body["steps_checked"] -= 1
            body["checks"] = body["checks"][:-3]
        assert verify_edited(eight_convexity_cert, tmp_path,
                             cut) == EXIT_VERIFY_DISAGREE

    # Edits the prover cannot write; each got AGREES under the old
    # `passed == all(rows)` rule.
    @pytest.mark.parametrize("edit", [
        lambda b: b.update(problem="gerver"),
        lambda b: b.update(problem=7),
        lambda b: b["parameters"].update(order=2),
        lambda b: b["parameters"].update(order="x"),
        lambda b: b.update(failure="step 5, body 2: too coarse"),
        lambda b: b["checks"][4].update(axis="sideways"),
        lambda b: b["checks"][4].update(condition="sideways"),
        lambda b: b.update(passed=1),
        lambda b: b["checks"][4].update(passed="yes"),
        lambda b: b["checks"][0].update(step=True, body=True),
        lambda b: b["checks"][4].update(second=b["checks"][4]["second"][::-1]),
        lambda b: (b["parameters"].update(h=float("inf").hex()),
                   b.update(steps_checked=1, checks=b["checks"][:3])),
        lambda b: b["checks"][4].update(slope=["zz", "qq"]),
        # the published h and order are the only ones the prover writes
        lambda b: b["parameters"].update(h=math.nextafter(
            float.fromhex(b["parameters"]["h"]), math.inf).hex()),
        lambda b: b["parameters"].update(h=math.nextafter(
            float.fromhex(b["parameters"]["h"]), 0.0).hex()),
        lambda b: b["parameters"].update(order=8),
        lambda b: b["parameters"].update(order=12),
        lambda b: b["parameters"].update(order=7.0),
        # the same floats in spellings float.hex does not write
        lambda b: b["checks"][5]["slope"].__setitem__(
            0, respelled(b["checks"][5]["slope"][0])),
        lambda b: b["checks"][5]["third"].__setitem__(
            1, respelled(b["checks"][5]["third"][1])),
        lambda b: b["crossing_time"].__setitem__(
            0, respelled(b["crossing_time"][0])),
    ], ids=["problem-gerver", "problem-int", "order-2", "order-str",
            "failure-while-passed", "axis", "condition", "passed-int",
            "row-passed-str", "row-step-body-true", "row-second-reversed",
            "h-inf-one-step", "row-slope-unreadable", "h-ulp-up",
            "h-ulp-down", "order-8", "order-12", "order-float",
            "row-slope-respelled", "row-third-respelled",
            "crossing-time-respelled"])
    def test_edit_the_prover_cannot_write(self, eight_convexity_cert,
                                          tmp_path, edit):
        assert verify_edited(eight_convexity_cert, tmp_path,
                             edit) == EXIT_VERIFY_DISAGREE

    @pytest.mark.parametrize("level, line", [
        (lambda b: b, "top-level keys are exactly the ones the prover writes"),
        (lambda b: b["parameters"], "problem and parameters are the "
         "prover's: eight at h 0.01 and order 7"),
        (lambda b: b["checks"][4],
         "every row's keys are exactly the ones the prover writes"),
    ], ids=["top-level", "parameters", "row"])
    def test_closed_key_sets(self, eight_convexity_cert, level, line):
        # an extra key is a FAIL line of its own at every level
        body = parse_document(eight_convexity_cert.read_text())
        level(body)["note"] = "x"
        messages = reverify_document(json.dumps(body)).messages
        assert [m for m in messages if m.startswith("FAIL")] == ["FAIL " + line]

    def test_an_untrusted_step_count_costs_no_memory(self,
                                                     eight_convexity_cert):
        # the rows are compared with as many expected rows as there are,
        # and the start times are reached only for a complete document
        import tracemalloc
        body = parse_document(eight_convexity_cert.read_text())
        body["steps_checked"] = 10 ** 6
        text = json.dumps(body)
        tracemalloc.start()
        try:
            report = reverify_document(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not report.ok
        assert "FAIL rows run step by step over bodies 1..3 up to step " \
            "1000000, each naming its piece's condition" in report.messages
        assert peak < 4 * 2 ** 20

    def test_honest_failing_document_agrees(self, failing_convexity_cert):
        body = parse_document(failing_convexity_cert.read_text())
        assert body["passed"] is False
        assert body["failure"].startswith("step 5, body 2: ")
        assert len(body["checks"]) == 13
        assert main(["verify", "--cert", str(failing_convexity_cert),
                     "--quiet"]) == EXIT_OK

    @pytest.mark.parametrize("edit", [
        lambda b: b.update(failure=""),
        lambda b: b.update(passed=True),
        lambda b: b["checks"][12].update(passed=False),
        lambda b: b["checks"].pop(5),
        lambda b: b["crossing_time"].__setitem__(
            1, respelled(b["crossing_time"][1])),
        lambda b: b.update(crossing_time=["zz", "qq"]),
    ], ids=["no-failure", "passed", "row-failed", "row-dropped",
            "crossing-time-respelled", "crossing-time-unreadable"])
    def test_edited_failing_document(self, failing_convexity_cert, tmp_path,
                                     edit):
        assert verify_edited(failing_convexity_cert, tmp_path,
                             edit) == EXIT_VERIFY_DISAGREE


def in_a_fresh_interpreter(code: str, cwd) -> str:
    """The last line that `code` prints, run by a new interpreter that
    imports the package from this tree."""
    src = str(Path(choreocert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         check=True, capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def test_cli_import_does_not_load_a_process_pool(tmp_path):
    # prove runs the systems of a comma list in turn, in this process
    code = ("import sys, choreocert.cli\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules])")
    assert in_a_fresh_interpreter(code, tmp_path) == "[]"


def test_cli_import_builds_no_parser(tmp_path):
    # main builds its parser at its first call, not at import
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import choreocert.cli\n"
            "at_import = len(built)\n"
            "choreocert.cli._parser()\n"
            "print(at_import, len(built) > 0)")
    assert in_a_fresh_interpreter(code, tmp_path) == "0 True"


def run_without_scipy(argv, cwd) -> str:
    """The exit code of `main(argv)`, printed by a fresh interpreter in which
    scipy cannot be imported, followed by the scipy modules it loaded."""
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from choreocert.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, [m for m in sys.modules"
            " if m.startswith('scipy') and sys.modules[m] is not None])")
    return in_a_fresh_interpreter(code, cwd)


def test_cli_import_does_not_load_scipy_integrate(tmp_path):
    # scipy is a test dependency only: with it unimportable, refine's Newton
    # iteration on the validated map still runs
    argv = ["refine", "--system", "eight", "--guess", "0.35,0.53"]
    assert run_without_scipy(argv, tmp_path) == "0 []"


def test_krawczyk_proof_does_not_load_scipy_integrate(tmp_path):
    # the Krawczyk preconditioner is the midpoint inverse of the proof's own
    # derivative enclosure, so prove never integrates in floats
    argv = ["prove", "--system", "gerver", "--out", "g.cert"]
    assert run_without_scipy(argv, tmp_path) == "0 []"
