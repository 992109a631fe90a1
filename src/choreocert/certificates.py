"""Machine-checkable proof certificates.

A certificate is one text document: a JSON body in which every float is a
lossless hexadecimal string, followed by an informative block of comment
lines with decimal renderings.  Re-running with identical flags and rounding
backend reproduces the document bit for bit except the wall-clock field.

The verifier re-derives each iteration's operator image from the serialized
ingredients alone (candidate, box, defect enclosure, derivative enclosure,
preconditioner) and re-checks the inclusion logic, so a stored verdict can
be audited without any integration.  The top-level copies must restate the
first iteration and `box` must be box(candidate, delta).  Informative, not
checked: `step_counts`, the crossing times, `crossing_notes`, `cause`,
`wall_clock_seconds`, `environment` and the problem's body and coordinate
counts and names.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import IntervalMatrix, IntervalVector
from .convexity import ConvexityCertificate, starts_before_crossing
from .errors import ChoreoCertError
from .interval import Interval, rounding_backend
from .rootfind import CertificationOutcome, judge, krawczyk_operator, newton_operator

SCHEMA_VERSION = 1
_COMMENT_HEADER = "# --- decimal rendering (informative) ---"


def _hex_vec(v: np.ndarray) -> list[str]:
    return [float(x).hex() for x in np.asarray(v, float)]


def _unhex_vec(data) -> np.ndarray:
    return np.array([float.fromhex(s) for s in data])


def _hex_float(x: float | None):
    return None if x is None else float(x).hex()


@dataclass
class ProofCertificate:
    """Existence-proof record for one certification run."""

    problem_id: str
    n_bodies: int
    reduced_dim: int
    reduced_names: tuple[str, ...]
    size_parameter: float | None
    method: str
    h_point: float
    h_set: float
    order: int
    delta: float
    max_iter: int
    candidate: np.ndarray
    box: IntervalVector
    phi_at_candidate: IntervalVector | None
    dphi_on_box: IntervalMatrix | None
    preconditioner: np.ndarray | None
    operator_image: IntervalVector | None
    refined_box: IntervalVector | None
    verdict: str
    cause: str
    iterations: int
    trace: list[dict] = field(default_factory=list)
    crossing_time_point: Interval | None = None
    crossing_time_set: Interval | None = None
    steps_point: int = 0
    steps_set: int = 0
    crossing_notes: dict = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    rounding: str = ""

    def to_document(self) -> str:
        body = {
            "schema_version": SCHEMA_VERSION,
            "kind": "existence",
            "problem": {
                "id": self.problem_id,
                "n_bodies": self.n_bodies,
                "reduced_dim": self.reduced_dim,
                "reduced_names": list(self.reduced_names),
                "size_parameter": _hex_float(self.size_parameter),
            },
            "method": self.method,
            "parameters": {
                "h_point": _hex_float(self.h_point),
                "h_set": _hex_float(self.h_set),
                "order": self.order,
                "delta": _hex_float(self.delta),
                "max_iter": self.max_iter,
            },
            "candidate": _hex_vec(self.candidate),
            "box": self.box.to_hex(),
            "phi_at_candidate": (self.phi_at_candidate.to_hex()
                                 if self.phi_at_candidate is not None else None),
            "dphi_on_box": (self.dphi_on_box.to_hex()
                            if self.dphi_on_box is not None else None),
            "preconditioner": ([_hex_vec(row) for row in self.preconditioner]
                               if self.preconditioner is not None else None),
            "operator_image": (self.operator_image.to_hex()
                               if self.operator_image is not None else None),
            "refined_box": (self.refined_box.to_hex()
                            if self.refined_box is not None else None),
            "verdict": self.verdict,
            "cause": self.cause,
            "iterations": self.iterations,
            "trace": self.trace,
            "crossing_time_point": (list(self.crossing_time_point.to_hex())
                                    if self.crossing_time_point else None),
            "crossing_time_set": (list(self.crossing_time_set.to_hex())
                                  if self.crossing_time_set else None),
            "crossing_notes": {k: list(v.to_hex())
                               for k, v in sorted(self.crossing_notes.items())},
            "step_counts": {"point": self.steps_point, "set": self.steps_set},
            "wall_clock_seconds": self.wall_clock_seconds,
            "environment": {"rounding_backend": self.rounding or rounding_backend()},
        }
        text = json.dumps(body, sort_keys=True, indent=1)
        lines = [text, _COMMENT_HEADER]
        lines.append(f"# system: {self.problem_id}  method: {self.method}  "
                     f"verdict: {self.verdict}")
        lines.append("# candidate: ("
                     + ", ".join(f"{x:.17g}" for x in self.candidate) + ")")
        if self.size_parameter is not None:
            lines.append(f"# size parameter a = {self.size_parameter:.17g}")
        if self.phi_at_candidate is not None:
            for i, iv in enumerate(self.phi_at_candidate):
                lines.append(f"# defect[{i}] = [{iv.lo:.8e}, {iv.hi:.8e}]  "
                             f"diam {iv.diam():.3e}")
        if self.operator_image is not None:
            for i, iv in enumerate(self.operator_image):
                lines.append(f"# image[{i}] = [{iv.lo:.17g}, {iv.hi:.17g}]")
        return "\n".join(lines) + "\n"


def trace_to_json(outcome: CertificationOutcome) -> list[dict]:
    out = []
    for rec in outcome.trace:
        out.append({
            "index": rec.index,
            "x": _hex_vec(rec.x),
            "X": rec.X.to_hex(),
            "f_x": rec.f_x.to_hex(),
            "df_X": rec.df_X.to_hex(),
            "C": ([_hex_vec(row) for row in rec.C]
                  if rec.C is not None else None),
            "image": rec.image.to_hex(),
            "relation": rec.relation,
        })
    return out


def parse_document(text: str) -> dict:
    """JSON body of a certificate document (comments ignored)."""
    body, _ = json.JSONDecoder().raw_decode(text)
    return body


# What reading an untrusted document can raise: a missing field, a wrong
# type, a bad hex string or non-JSON text, and arithmetic the prover never
# meets (a singular derivative, intervals out of order).
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError,
              ArithmeticError, ChoreoCertError)


@dataclass
class VerificationReport:
    ok: bool
    messages: list[str] = field(default_factory=list)

    def add(self, ok: bool, msg: str) -> None:
        self.messages.append(("ok   " if ok else "FAIL ") + msg)
        if not ok:
            self.ok = False


def reverify_document(text: str) -> VerificationReport:
    """Re-check a stored verdict from serialized intervals only.

    Recomputes every iteration's operator image from the stored defect and
    derivative enclosures (bit-identical arithmetic, no integration), then
    re-derives each relation, each next box, the verdict, the operator
    image and the refined box with the prover's own rule.  A document that
    cannot be read (a missing field, a wrong type, a bad hex string, text
    that is not JSON) gets a FAIL line, like any other disagreement.
    """
    rep = VerificationReport(ok=True)
    try:
        body = parse_document(text)
        kind = body.get("kind")
        if kind == "existence":
            _reverify_existence(body, rep)
        elif kind == "convexity":
            _reverify_convexity(body, rep)
        else:
            rep.add(False, f"unknown certificate kind {kind!r}")
    except _MALFORMED as exc:
        rep.add(False, f"malformed document: {type(exc).__name__}: {exc}")
    return rep


def _reverify_existence(body: dict, rep: VerificationReport) -> None:
    # The fields that commands read from a document once it verifies.
    pb, params = body["problem"], body["parameters"]
    a_hex = pb["size_parameter"]
    steps = [float.fromhex(params[k]) for k in ("h_point", "h_set")]
    rep.add(isinstance(pb["id"], str)
            and type(params["order"]) is int and params["order"] >= 1
            and all(math.isfinite(h) and h > 0.0 for h in steps)
            and (a_hex is None or math.isfinite(float.fromhex(a_hex))),
            "problem and parameters are readable, steps > 0, order >= 1")

    method = body["method"]
    verdict = body["verdict"]
    trace = body["trace"]

    # The top-level copies restate the first iteration, checked below.
    first = trace[0] if trace else {"x": body["candidate"]}
    box = IntervalVector.box(_unhex_vec(body["candidate"]),
                             float.fromhex(params["delta"]))
    rep.add(body["box"] == box.to_hex(), "box is box(candidate, delta)")
    for name, key in (("candidate", "x"), ("phi_at_candidate", "f_x"),
                      ("dphi_on_box", "df_X"), ("preconditioner", "C")):
        rep.add(body[name] == first.get(key)
                or (name == "preconditioner" and body[name] is None),
                f"{name} is the first iteration's {key}")
    # certify counts the iteration whose derivative enclosure was singular;
    # only that stop leaves no operator image before the iteration limit.
    singular = body["operator_image"] is None and len(trace) < params["max_iter"]
    rep.add(body["iterations"] == len(trace) + singular,
            f"iteration count {body['iterations']!r} matches the trace")
    if not trace:
        rep.add(verdict == "Inconclusive",
                "no iterations recorded; only Inconclusive is acceptable")
        return

    next_X = IntervalVector.from_hex(body["box"])
    for rec in trace:
        idx = rec["index"]
        x = _unhex_vec(rec["x"])
        X = IntervalVector.from_hex(rec["X"])
        f_x = IntervalVector.from_hex(rec["f_x"])
        df_X = IntervalMatrix.from_hex(rec["df_X"])
        image = IntervalVector.from_hex(rec["image"])

        rep.add(next_X is not None and X == next_X,
                f"iter {idx}: box is the previous box cut by its image")
        rep.add(X.contains_point(x), f"iter {idx}: candidate lies in the box")

        if method == "newton":
            recomputed = newton_operator(x, f_x, df_X)
        else:
            C = np.array([_unhex_vec(r) for r in rec["C"]])
            recomputed = krawczyk_operator(x, X, f_x, df_X, C)
        rep.add(recomputed == image,
                f"iter {idx}: operator image reproduces bit-for-bit")

        relation, settled, next_X = judge(X, image)
        rep.add(relation == rec["relation"],
                f"iter {idx}: relation {rec['relation']!r} re-derived")
        if settled is not None and rec is not trace[-1]:
            rep.add(False, f"iter {idx}: the run stops here with {settled}")

    # Without a settled verdict the run stopped at the iteration limit or
    # at a singular derivative enclosure in the iteration after the trace;
    # only the latter leaves no operator image.
    expected = settled or "Inconclusive"
    rep.add(verdict == expected,
            f"final verdict {verdict!r} follows from the last relation "
            f"{relation!r}")
    rep.add(body["operator_image"] == rec["image"]
            or (settled is None and body["operator_image"] is None),
            "operator image is the last iteration's image")
    refined = next_X.to_hex() if next_X is not None else None
    rep.add(body["refined_box"] == refined,
            "refined box is the last box cut by the last image")


# --- convexity certificates ------------------------------------------------

def convexity_to_document(cert: ConvexityCertificate,
                          wall_clock_seconds: float = 0.0) -> str:
    checks = []
    for c in cert.checks:
        checks.append({
            "step": c.step,
            "body": c.body,
            "axis": c.derivs.axis,
            "condition": c.condition,
            "rate": [c.derivs.independent_rate.lo.hex(),
                     c.derivs.independent_rate.hi.hex()],
            "slope": [c.derivs.slope.lo.hex(), c.derivs.slope.hi.hex()],
            "second": [c.derivs.second.lo.hex(), c.derivs.second.hi.hex()],
            "third": [c.derivs.third.lo.hex(), c.derivs.third.hi.hex()],
            "passed": c.passed,
        })
    body = {
        "schema_version": SCHEMA_VERSION,
        "kind": "convexity",
        "problem": cert.problem,
        "parameters": {"h": _hex_float(cert.h), "order": cert.order},
        "passed": cert.passed,
        "failure": cert.failure,
        "steps_checked": cert.steps_checked,
        "origin_in_first_step": cert.origin_in_first_step,
        "crossing_time": (list(map(_hex_float,
                                   (cert.crossing_time.lo, cert.crossing_time.hi)))
                          if cert.crossing_time else None),
        "checks": checks,
        "wall_clock_seconds": wall_clock_seconds,
        "environment": {"rounding_backend": rounding_backend()},
    }
    lines = [json.dumps(body, sort_keys=True, indent=1), _COMMENT_HEADER]
    lines.append(f"# convexity of {cert.problem}: "
                 f"{'PASS' if cert.passed else 'FAIL'} over "
                 f"{cert.steps_checked} steps at h={cert.h}, order={cert.order}")
    for c in cert.checks:
        if c.step in (1, 2, 37):
            gd = c.derivs
            lines.append(
                f"# step {c.step} body {c.body} [{gd.axis}, {c.condition}]: "
                f"rate [{gd.independent_rate.lo:.6g},{gd.independent_rate.hi:.6g}] "
                f"second [{gd.second.lo:.6g},{gd.second.hi:.6g}] "
                f"third [{gd.third.lo:.6g},{gd.third.hi:.6g}]")
    return "\n".join(lines) + "\n"


def _reverify_convexity(body: dict, rep: VerificationReport) -> None:
    """Re-check every stored condition and, for a passing document, that the
    rows cover what `verify_convexity` must check: each of the Eight's three
    bodies on every step that starts before the crossing time, with the
    inflection condition on step 1 body 3 only, and the origin in the first
    step."""
    for c in body["checks"]:
        second = Interval.from_hex(*c["second"])
        third = Interval.from_hex(*c["third"])
        rate = Interval.from_hex(*c["rate"])
        where = f"step {c['step']} body {c['body']}"
        rep.add(not rate.contains_zero(), f"{where}: graph axis is valid")
        if c["condition"] == "inflection":
            rep.add(second.contains_zero() and not third.contains_zero(),
                    f"{where}: unique-inflection condition re-checked")
        else:
            rep.add(not second.contains_zero(),
                    f"{where}: nonvanishing-curvature condition re-checked")
    rep.add(bool(body["passed"]) == all(c["passed"] for c in body["checks"]),
            "stored verdict consistent with stored checks")
    if not body["passed"]:
        return

    n = body["steps_checked"]
    rows = [(c["step"], c["body"], c["condition"]) for c in body["checks"]]
    rep.add(len(rows) == 3 * n
            and rows == [(k, b, "inflection" if (k, b) == (1, 3) else "curvature")
                         for k in range(1, n + 1) for b in (1, 2, 3)],
            f"one row per step 1..{n} and body 1..3, the inflection "
            "condition on step 1 body 3 only")
    rep.add(body["origin_in_first_step"] is True,
            "origin lies in the first step enclosure")
    if body["crossing_time"] is None:
        rep.add(False, "a passing document records its crossing time")
        return
    h = float.fromhex(body["parameters"]["h"])
    t_cross = Interval.from_hex(*body["crossing_time"])
    rep.add(n >= 1 and starts_before_crossing(h, n - 1, t_cross)
            and not starts_before_crossing(h, n, t_cross),
            f"step {n} is the last step that begins before the crossing time")
