import json

import numpy as np
import pytest

from choreocert.boxes import IntervalMatrix, IntervalVector
from choreocert.certificates import (
    ProofCertificate,
    parse_document,
    reverify_document,
    trace_to_json,
)
from choreocert.interval import Interval
from choreocert.rootfind import CertifiableMap, CertificationJob, certify


def quadratic_map():
    def eval_point(x):
        iv = Interval.point(float(x[0]))
        return IntervalVector.from_intervals([iv.sqr() - Interval.point(2.0)])

    def eval_jacobian(X):
        return IntervalMatrix.from_intervals([[Interval.point(2.0) * X[0]]])

    return CertifiableMap(1, eval_point, eval_jacobian)


def small_certificate(method="newton", x0=1.5, delta=0.5, max_iter=64):
    job = CertificationJob(map=quadratic_map(), x0=np.array([x0]),
                           X=IntervalVector.box([x0], delta), method=method,
                           max_iter=max_iter)
    out = certify(job)
    first = out.trace[0] if out.trace else None
    return ProofCertificate(
        problem_id="quadratic", n_bodies=0, reduced_dim=1,
        reduced_names=("x",), size_parameter=None, method=method,
        h_point=0.01, h_set=0.01, order=7, delta=delta, max_iter=job.max_iter,
        candidate=np.array([x0]), box=job.X,
        phi_at_candidate=first.f_x if first else None,
        dphi_on_box=first.df_X if first else None,
        preconditioner=first.C if first else None,
        operator_image=out.operator_image, refined_box=out.refined_box,
        verdict=out.verdict, cause=out.cause, iterations=out.iterations,
        trace=trace_to_json(out), wall_clock_seconds=1.234,
        rounding="nudge"), out


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

    def test_agrees_on_shrinking_and_iteration_limit(self):
        # [0.9, 1.5] overlaps its first image, so the box shrinks once
        for max_iter, verdict in ((64, "UniqueZero"), (1, "Inconclusive")):
            cert, out = small_certificate(x0=1.2, delta=0.3, max_iter=max_iter)
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

    @pytest.mark.parametrize("key, value", [
        ("h_point", "0x0.0p+0"), ("h_set", "0x0.0p+0"), ("h_set", "-0x1.0p-7"),
        ("h_set", "inf"), ("h_point", "nan"), ("order", 0),
    ])
    def test_unusable_parameters_fail(self, key, value):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        body["parameters"][key] = value
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL problem and parameters")
                   for m in report.messages)


class TestMalformed:
    @pytest.mark.parametrize("edit", [
        lambda body: body.pop("trace"),
        lambda body: body.pop("refined_box"),
        lambda body: body.update(trace=5),
        lambda body: body.update(box=[["0xzz", "0x1.8p+0"]]),
        lambda body: body["parameters"].update(order="seven"),
    ], ids=["no-trace", "no-refined-box", "trace-not-a-list", "bad-hex",
            "order-not-an-int"])
    def test_edited_document_fails(self, edit):
        cert, _ = small_certificate()
        body = parse_document(cert.to_document())
        edit(body)
        report = reverify_document(json.dumps(body))
        assert not report.ok
        assert any(m.startswith("FAIL") for m in report.messages)

    @pytest.mark.parametrize("text", ["", "not json", "[1, 2]", '{"kind": 3}'])
    def test_unreadable_text_fails(self, text):
        report = reverify_document(text)
        assert not report.ok
