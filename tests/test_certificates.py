import dataclasses
import json

import numpy as np
import pytest

from choreocert import certificates, rootfind
from choreocert.boxes import IntervalMatrix, IntervalVector
from choreocert.certificates import (
    ProofCertificate,
    convexity_to_document,
    parse_document,
    reverify_document,
)
from choreocert.cli import DEFAULTS, run_certification
from choreocert.convexity import verify_convexity
from choreocert.integrator import StepPolicy
from choreocert.interval import Interval
from choreocert.problems import make_problem
from choreocert.rootfind import (
    CertifiableMap,
    CertificationJob,
    certify,
    judge,
    krawczyk_operator,
)


def _matrix(rows) -> IntervalMatrix:
    """An interval matrix from rows of scalar intervals."""
    return IntervalMatrix(np.array([[iv.lo for iv in r] for r in rows]),
                          np.array([[iv.hi for iv in r] for r in rows]))


def quadratic_map():
    # two copies of x^2 - 2, so a certificate has the Eight's two coordinates
    def enclose(x, X):
        two = Interval.point(2.0)
        return (IntervalVector.from_intervals(
                    [Interval.point(float(v)).sqr() - two for v in x]),
                _matrix([[two * X[0], Interval(0.0)],
                         [Interval(0.0), two * X[1]]]))

    return CertifiableMap(2, enclose)


def small_certificate(method="newton", x0=1.5, delta=0.5, h=0.01):
    # the verifier rebuilds the problem from its id, so the toy map's
    # certificate carries the Eight's problem block; a Krawczyk run has one
    # preconditioner, the midpoint inverse over the first box
    x = np.array([x0, x0])
    job = CertificationJob(map=quadratic_map(), x0=x,
                           X=IntervalVector.box(x, delta), method=method)
    out = certify(job)
    return ProofCertificate(make_problem("eight"), job, out, StepPolicy(h, 7),
                            delta, wall_clock_seconds=1.234), out


class TestSerialization:
    def test_document_roundtrip(self):
        cert, out = small_certificate()
        doc = cert.to_document()
        body = parse_document(doc)
        assert body["verdict"] == out.verdict
        assert body["kind"] == "existence"
        restored = IntervalVector.from_hex(body["operator_image"])
        assert restored == out.operator_image
        assert float.fromhex(body["candidate"][0]) == 1.5

    def test_comments_do_not_break_parsing(self):
        cert, _ = small_certificate()
        doc = cert.to_document()
        assert "# " in doc
        parse_document(doc)  # must not raise

    def test_informative_fields_are_what_a_replay_cannot_know(self):
        # the verifier's replay integrates nothing: without the map's last
        # evaluations and the wall clock, exactly the informative fields
        # that describe the flows change
        d = DEFAULTS["eight"]
        cert, _ = run_certification(
            make_problem("eight"), d["method"],
            StepPolicy(d["h"], d["order"], d["tol"]),
            d["delta"], np.array(d["candidate"]))
        replayed = dataclasses.replace(cert, point=None, set=None,
                                       wall_clock_seconds=0.0)
        written, rebuilt = cert.body(), replayed.body()
        assert set(written) == set(rebuilt)
        differ = {k for k in written if written[k] != rebuilt[k]}
        assert differ == {"crossing_time_point", "crossing_time_set",
                          "crossing_notes", "step_counts", "step_sizes",
                          "wall_clock_seconds"}
        assert differ == certificates._INFORMATIVE

    def test_document_deterministic_except_wall_clock(self):
        cert1, _ = small_certificate()
        cert2, _ = small_certificate()
        cert2.wall_clock_seconds = 9.876
        strip = lambda d: "\n".join(
            line for line in d.splitlines() if "wall_clock" not in line)
        assert strip(cert1.to_document()) == strip(cert2.to_document())
        assert cert1.to_document() != cert2.to_document()


class TestReverify:
    def test_agrees_with_honest_certificate(self):
        for method in ("newton", "krawczyk"):
            cert, _ = small_certificate(method=method)
            report = reverify_document(cert.to_document())
            assert report.ok, report.messages

    def test_agrees_on_no_zero(self):
        cert, out = small_certificate(x0=10.5)
        assert out.verdict == "NoZero"
        report = reverify_document(cert.to_document())
        assert report.ok, report.messages

    def test_agrees_on_shrinking_and_iteration_limit(self, monkeypatch):
        # [0.9, 1.5] overlaps its first image, so the box shrinks once
        for max_iter, verdict in ((64, "UniqueZero"), (1, "Inconclusive")):
            monkeypatch.setattr(rootfind, "MAX_ITER", max_iter)
            cert, out = small_certificate(x0=1.2, delta=0.3)
            assert out.trace[0].relation == "overlap"
            assert out.verdict == verdict
            report = reverify_document(cert.to_document())
            assert report.ok, report.messages

    def test_detects_tampered_image(self):
        cert, _ = small_certificate()
        doc = cert.to_document()
        body = parse_document(doc)
        # widen the stored operator image in the trace: recomputation no
        # longer reproduces it
        tampered = body["trace"][-1]["image"][0]
        widened = float.fromhex(tampered[1]) + 1e-3
        body["trace"][-1]["image"][0][1] = widened.hex()
        report = reverify_document(json.dumps(body))
        assert not report.ok

    def test_detects_unrelated_refined_box(self):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["refined_box"] = IntervalVector.box([1.4], 1e-3).to_hex()
        report = reverify_document(json.dumps(body))
        assert not report.ok

    def test_detects_unrelated_operator_image(self):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["operator_image"] = IntervalVector.box([1.4], 1e-3).to_hex()
        report = reverify_document(json.dumps(body))
        assert not report.ok

    @pytest.mark.parametrize("max_iter, cause", [
        (64, "iteration limit reached"), (1, ""), (1, "iteration limit")])
    def test_edited_cause_disagrees(self, monkeypatch, max_iter, cause):
        # the replay derives the cause exactly: "" for a UniqueZero, the
        # stop's reason for an Inconclusive
        monkeypatch.setattr(rootfind, "MAX_ITER", max_iter)
        cert, _ = small_certificate(x0=1.2, delta=0.3)
        body = parse_document(cert.to_document())
        assert reverify_document(json.dumps(body)).ok
        body["cause"] = cause
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert "FAIL cause is the one the replay writes" in report.messages

    @pytest.mark.parametrize("environment", [
        {"rounding_backend": "nearest"}, {}, None])
    def test_edited_environment_disagrees(self, environment):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["environment"] = environment
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert ("FAIL environment is the one the replay writes"
                in report.messages)

    @pytest.mark.parametrize("environment", [
        {"rounding_backend": "nearest"}, None])
    def test_edited_convexity_environment_disagrees(self, eight_convexity_body,
                                                    environment):
        assert reverify_document(json.dumps(eight_convexity_body)).ok
        body = {**eight_convexity_body, "environment": environment}
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert ("FAIL environment names the kernels' rounding rule"
                in report.messages)

    def test_detects_forged_verdict(self):
        cert, _ = small_certificate(x0=10.5)  # honest NoZero
        body = parse_document(cert.to_document())
        body["verdict"] = "UniqueZero"
        report = reverify_document(json.dumps(body))
        assert not report.ok


def bump(value: str) -> str:
    """The next float above a hex string, as a hex string."""
    return float(np.nextafter(float.fromhex(value), np.inf)).hex()


def set_in(body, path, value):
    *outer, last = path
    for key in outer:
        body = body[key]
    body[last] = value


def get_in(body, path):
    for key in path:
        body = body[key]
    return body


class TestBoundToTrace:
    # the top-level copies restate the first iteration; a 1-ulp change to
    # any of them, or a wrong iteration count, must not verify
    @pytest.mark.parametrize("method, path", [
        ("newton", ("candidate", 0)),
        ("newton", ("phi_at_candidate", 0, 1)),
        ("newton", ("dphi_on_box", 0, 0, 0)),
        ("newton", ("box", 0, 0)),
        ("newton", ("parameters", "delta")),
        ("krawczyk", ("preconditioner", 0, 0)),
    ], ids=["candidate", "phi_at_candidate", "dphi_on_box", "box", "delta",
            "preconditioner"])
    def test_one_ulp_change_fails(self, method, path):
        cert, _ = small_certificate(method=method)
        body = parse_document(cert.to_document())
        assert reverify_document(json.dumps(body)).ok
        set_in(body, path, bump(get_in(body, path)))
        report = reverify_document(json.dumps(body))
        assert not report.ok, report.messages

    @pytest.mark.parametrize("count", [0, 2, 7])
    def test_wrong_iteration_count_fails(self, count):
        cert, out = small_certificate()
        assert out.iterations == 1
        body = parse_document(cert.to_document())
        body["iterations"] = count
        assert not reverify_document(json.dumps(body)).ok

    def test_singular_derivative_stop_counts_one_more(self):
        # 2X contains 0 on [-0.5, 0.5]: the first iteration stops singular
        cert, out = small_certificate(x0=0.0, delta=0.5)
        assert out.trace == [] and out.iterations == 1
        body = parse_document(cert.to_document())
        assert reverify_document(json.dumps(body)).ok
        for count in (0, 2):
            body["iterations"] = count
            assert not reverify_document(json.dumps(body)).ok

    def test_krawczyk_singular_midpoint_stops_as_newton_does(self):
        # the midpoint of 2X is singular, so Krawczyk stops before it has a
        # preconditioner to store, and the replay stops there too
        cert, out = small_certificate("krawczyk", x0=0.0, delta=0.5)
        assert out.trace == [] and out.iterations == 1
        body = parse_document(cert.to_document())
        assert body["preconditioner"] is None
        assert reverify_document(json.dumps(body)).ok
        body["iterations"] = 2
        assert not reverify_document(json.dumps(body)).ok

    @pytest.mark.parametrize("key, value, failing", [
        ("h", "0x0.0p+0", "problem and parameters"),
        ("h", "-0x1.0p-7", "problem and parameters"),
        ("h", "inf", "problem and parameters"),
        ("h", "nan", "problem and parameters"),
        ("order", 0, "problem and parameters"),
        # the retired split step sizes: a document of the old form, h
        # replaced by h_point and h_set, fails on its key set
        ("h_point", "0x0.0p+0", "parameters "),
        ("h_set", "0x0.0p+0", "parameters "),
    ], ids=["zero-h", "h-negative", "h-inf", "h-nan", "order-0",
            "h_point-0x0.0p+0", "h_set-0x0.0p+0"])
    def test_unusable_parameters_fail(self, key, value, failing):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        params = body["parameters"]
        if key in ("h_point", "h_set"):
            h = params.pop("h")
            params.update(h_point=h, h_set=h)
        params[key] = value
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL " + failing) for m in report.messages)


class TestProblemBlock:
    @pytest.mark.parametrize("edit", [
        {"n_bodies": 7, "reduced_dim": 9, "reduced_names": ["q"]},
        {"n_bodies": 7},
        {"reduced_names": ["u", "v"]},
        {"size_parameter": "0x1.0p-3"},
    ], ids=["all-three", "n_bodies", "names", "size"])
    def test_edited_shape_fails(self, edit):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["problem"].update(edit)
        report = reverify_document(json.dumps(body))
        assert not report.ok
        # make_problem refuses a size parameter for the Eight
        failing = ("FAIL problem 'eight' with size parameter '0x1.0p-3' "
                   "cannot be rebuilt" if "size_parameter" in edit
                   else "FAIL problem block is the one make_problem rebuilds")
        assert any(m.startswith(failing) for m in report.messages)

    def test_unknown_id_is_a_fail_line(self):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["problem"]["id"] = "quadratic"
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL problem 'quadratic' with size "
                                "parameter None cannot be rebuilt")
                   for m in report.messages)

    def test_candidate_dimension_is_the_problems(self):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["problem"] = {"id": "gerver", "n_bodies": 4, "reduced_dim": 3,
                           "reduced_names": ["x1", "vx0", "vy1"],
                           "size_parameter": float("0.157029944461").hex()}
        messages = reverify_document(json.dumps(body)).messages
        assert "ok   problem block is the one make_problem rebuilds" \
            in messages
        assert "FAIL candidate has the problem's reduced dimension" in messages


def newton_with_preconditioner(body):
    C = [["0x1.0p+0", "0x0.0p+0"], ["0x0.0p+0", "0x1.0p+0"]]
    body["trace"][0]["C"] = C
    body["preconditioner"] = C


TOL = (2.0 ** -50).hex()


def with_step_sizes(*sizes, tolerance=None):
    """An edit that stores these set step sizes (multiples of h, or a hex
    string as it stands) and the tolerance."""
    def edit(body):
        h = float.fromhex(body["parameters"]["h"])
        body["parameters"]["tolerance"] = tolerance
        body["step_counts"]["set"] = len(sizes)
        body["step_sizes"] = [v if isinstance(v, str) else (v * h).hex()
                              for v in sizes]
    return edit


class TestMalformed:
    # from "unknown-method" on, every operator image still reproduces: only
    # the rules on what the prover can write reject these documents
    @pytest.mark.parametrize("method, edit", [
        ("newton", lambda body: body.pop("trace")),
        ("newton", lambda body: body.pop("refined_box")),
        ("newton", lambda body: body.update(trace=5)),
        ("newton", lambda body: body.update(box=[["0xzz", "0x1.8p+0"]])),
        ("newton", lambda body: body["parameters"].update(order="seven")),
        ("krawczyk", lambda body: body.update(method="bogus")),
        ("newton", lambda body: body.update(schema_version=99)),
        ("newton", newton_with_preconditioner),
        ("newton", lambda body: body["trace"][0].update(index=7)),
        ("newton", lambda body: body["parameters"].update(max_iter=0)),
        ("newton", lambda body: body["parameters"].update(max_iter="x")),
        ("newton", lambda body: body["parameters"].update(
            delta=(-0.5).hex())),
        ("newton", lambda body: body.update(iterations=True)),
        ("newton", lambda body: body["parameters"].update(
            tolerance=(-1e-15).hex())),
        ("newton", lambda body: body["parameters"].update(tolerance="inf")),
        ("newton", lambda body: body["step_sizes"].append("0x1p-7")),
        ("newton", with_step_sizes(1.0, "inf", tolerance=TOL)),
        ("newton", with_step_sizes(2.0, 1.0, tolerance=TOL)),
        ("newton", with_step_sizes(1.0, 2.0)),
        ("newton", with_step_sizes(1.0, 2.0, 0.5, tolerance=TOL)),
        ("newton", lambda body: body["parameters"].update(
            h=(1e-320).hex())),
        ("newton", lambda body: body["parameters"].update(order=True)),
        # the replay runs at the one cap, rootfind.MAX_ITER
        ("newton", lambda body: body["parameters"].update(max_iter=65)),
        ("newton", lambda body: body["parameters"].update(max_iter=2)),
        ("krawczyk", lambda body: body["parameters"].update(max_iter=65)),
        ("krawczyk", lambda body: body["parameters"].update(max_iter=2)),
    ], ids=["no-trace", "no-refined-box", "trace-not-a-list", "bad-hex",
            "order-not-an-int", "unknown-method", "schema-version",
            "newton-with-preconditioner", "trace-index", "max-iter-zero",
            "max-iter-not-an-int", "negative-delta", "iterations-true",
            "tolerance-negative", "tolerance-inf",
            "more-sizes-than-steps", "step-size-inf", "first-size-not-h",
            "size-not-h-without-tolerance", "size-outside-the-clamp",
            "h-tiny", "order-true", "max-iter-65", "max-iter-2",
            "krawczyk-max-iter-65", "krawczyk-max-iter-2"])
    def test_edited_document_fails(self, method, edit):
        cert, _ = small_certificate(method=method)
        body = parse_document(cert.to_document())
        edit(body)
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL") for m in report.messages)

    @pytest.mark.parametrize("edit", [
        with_step_sizes(),
        with_step_sizes(1.0, 1.0, 1.0),
        with_step_sizes(1.0, 2.0, 1.0, tolerance=TOL),
    ], ids=["no-set-steps", "one-size", "controlled"])
    def test_step_sizes_of_the_written_shape_agree(self, edit):
        # the verifier binds the sizes' shape, not their values: under a
        # tolerance each within [1/2, 2] times the one before
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        edit(body)
        assert reverify_document(json.dumps(body)).ok

    @pytest.mark.parametrize("edit", [
        lambda params: params.update(foo="0x1.0p+0"),
        lambda params: params.update(h_point=params["h"]),
        lambda params: params.pop("h"),
    ], ids=["extra-key", "leftover-h-point", "no-h"])
    def test_parameters_are_a_closed_key_set(self, edit):
        # a FAIL line of its own, not a KeyError caught as malformed
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        edit(body["parameters"])
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL parameters ") for m in report.messages)
        assert not any("malformed" in m for m in report.messages)

    @pytest.mark.parametrize("text", ["", "not json", "[1, 2]", '{"kind": 3}'])
    def test_unreadable_text_fails(self, text):
        report = reverify_document(text)
        assert not report.ok


@pytest.fixture(scope="module")
def eight_convexity_body():
    """The body of the convexity document on the default Eight proof's
    refined box."""
    d = DEFAULTS["eight"]
    _, out = run_certification(make_problem("eight"), d["method"],
                               StepPolicy(d["h"], d["order"], d["tol"]),
                               d["delta"], np.array(d["candidate"]))
    return parse_document(convexity_to_document(
        verify_convexity(out.refined_box)))


@pytest.fixture(scope="session")
def eight_krawczyk_5():
    """A real multi-iteration document: the Eight by Krawczyk from a box of
    half-width 1e-3 around the candidate moved by +5e-4, which overlaps its
    image four times before the image lands inside."""
    candidate = np.array(DEFAULTS["eight"]["candidate"]) + 5e-4
    cert, out = run_certification(make_problem("eight"), "krawczyk",
                                  StepPolicy(0.01, 7), 1e-3, candidate)
    assert [r.relation for r in out.trace] == ["overlap"] * 4 + ["interior"]
    return cert.to_document()


def with_last_record(body, x=None, C=None):
    """The document with the last record's x or C replaced and its image,
    relation, verdict, operator image and refined box recomputed to match."""
    rec = body["trace"][-1]
    x = np.array([float.fromhex(v) for v in rec["x"]]) if x is None else x
    C = np.array([[float.fromhex(v) for v in row] for row in rec["C"]]) \
        if C is None else C
    X = IntervalVector.from_hex(rec["X"])
    image = krawczyk_operator(x, X, IntervalVector.from_hex(rec["f_x"]),
                              IntervalMatrix.from_hex(rec["df_X"]), C)
    relation, verdict, refined = judge(X, image)
    rec.update(x=[float(v).hex() for v in x],
               C=[[float(v).hex() for v in row] for row in C],
               image=image.to_hex(), relation=relation)
    body.update(operator_image=image.to_hex(), refined_box=refined.to_hex(),
                verdict=verdict)
    return body


class TestReplay:
    # every forgery below keeps each stored operator step consistent with
    # itself; only a replay of the prover's loop and writer tells it from a
    # document the prover writes
    def test_multi_iteration_document_agrees(self, eight_krawczyk_5):
        body = parse_document(eight_krawczyk_5)
        assert body["iterations"] == 5 and body["verdict"] == "UniqueZero"
        report = reverify_document(eight_krawczyk_5)
        assert report.ok, report.messages

    def test_schema_3_fails_on_its_version(self, eight_krawczyk_5):
        # schema 3 stored the images of round-to-nearest kernels with nudged
        # endpoints, which the round-down replay need not reproduce: the
        # version line rejects such a document before any replay runs
        body = parse_document(eight_krawczyk_5)
        body["schema_version"] = 3
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert [m for m in report.messages if m.startswith("FAIL")] == [
            "FAIL schema version 3 is 4"]

    @pytest.mark.parametrize("edit, line", [
        (lambda b: with_last_record(b, x=np.nextafter(
            IntervalVector.from_hex(b["trace"][-1]["X"]).mid(), np.inf)),
         "trace is the one the replay writes"),
        (lambda b: with_last_record(b, C=(1 + 1e-6) * np.array(
            [[float.fromhex(v) for v in row] for row in b["trace"][-1]["C"]])),
         "trace is the one the replay writes"),
        (lambda b: b["trace"][2].update(note="x"),
         "trace is the one the replay writes"),
        (lambda b: b.update(note="x"),
         "top-level keys are exactly the ones the prover writes"),
    ], ids=["x-off-the-midpoint", "C-of-its-own", "record-key",
            "top-level-key"])
    def test_forgery_disagrees(self, eight_krawczyk_5, edit, line):
        body = parse_document(eight_krawczyk_5)
        edit(body)
        assert body["verdict"] == "UniqueZero"
        assert "FAIL " + line in reverify_document(json.dumps(body)).messages

    def test_one_home_for_the_loop(self):
        # the verifier replays `certify`; it applies no operator or
        # verdict rule of its own
        import ast
        import pathlib

        import choreocert
        path = pathlib.Path(choreocert.__file__).parent / "certificates.py"
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & {"judge", "newton_operator", "krawczyk_operator"}
