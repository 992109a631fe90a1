import json

import numpy as np
import pytest

from choreocert.certificates import parse_document
from choreocert.cli import (
    EXIT_INTEGRATOR,
    EXIT_NO_ZERO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_DISAGREE,
    main,
)


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

    def test_eight_records_crossing_validity_note(self, eight_cert):
        from choreocert.certificates import parse_document
        from choreocert.interval import Interval
        body = parse_document(eight_cert.read_text())
        # the reduction needs the first body away from the origin on the
        # section; the certificate records the verified distance enclosure
        note = body["crossing_notes"]["first_body_distance_squared"]
        dist2 = Interval.from_hex(*note)
        assert dist2.lo > 1.0  # crossing happens near radius 1.08

    def test_unknown_system_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["prove"])  # --system required
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


    @pytest.mark.parametrize("edit", [
        lambda params: params.update(h_set="0x0p+0"),
        lambda params: params.update(order=0),
    ], ids=["zero-h-set", "order-zero"])
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


class TestRefine:
    def test_refine_eight(self, capsys):
        code = main(["refine", "--system", "eight", "--guess", "0.35,0.53"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0.3471168" in out

    def test_refine_garbage_diverges(self):
        assert main(["refine", "--system", "eight",
                     "--guess", "10,10"]) == EXIT_INTEGRATOR


class TestConvexityCommand:
    def test_from_certificate(self, eight_cert, tmp_path):
        out = tmp_path / "conv.cert"
        code = main(["convexity", "--cert", str(eight_cert),
                     "--out", str(out)])
        assert code == EXIT_OK
        assert main(["verify", "--cert", str(out), "--quiet"]) == EXIT_OK

    def test_no_inline_requires_cert(self):
        assert main(["convexity", "--no-inline"]) == EXIT_USAGE

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
