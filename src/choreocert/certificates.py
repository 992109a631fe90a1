"""Machine-checkable proof certificates.

A certificate is one text document: a JSON body in which every float is a
lossless hexadecimal string, followed by a block of comment lines with
decimal renderings of the body.  Re-running with identical flags on the same
machine reproduces the document bit for bit except the wall-clock field;
float QR and inverses go through BLAS/LAPACK, so another CPU or BLAS build
can change stored bits.  `environment.rounding_backend` names the one
rounding rule, "directed": every enclosure comes from the kernels computing
lower ends under the FPU's round-down mode and upper ends under its
round-up mode (`kernels`).  A replay reproduces stored images only under
that rule, so a document of another rule fails on its schema version, the
first thing the verifier checks: schema 3 stored the images of the earlier
round-to-nearest kernels with nudged endpoints.

An existence document is a function of one record, `ProofCertificate`,
which holds the run it documents: the problem, the certification job
(candidate, box(candidate, delta), method), the outcome `certify`
returned, `delta`, the step policy, written as `h`, `order` and
`tolerance` (null for one size h) and read back by `read_step_policy`, and
the certified map's last point and set evaluations.  `max_iter` is the cap
`rootfind.MAX_ITER`.  The job and the outcome give the box, the trace,
the top-level copies of its first record (the preconditioner among them),
the operator image, the refined box, the verdict, the cause and the
iteration count.  The trace is the whole run: one record per iteration,
numbered from 1, a stop on a derivative enclosure that is not certifiably
regular included (its image null, its relation "singular", its enclosures
stored), so the first record always exists, the count is the trace's
length and the operator image is the last record's.  The evaluations give
the crossing times, `crossing_notes`, `step_counts` and `step_sizes`.
Informative, since the replay integrates nothing: the crossing times,
`crossing_notes`, `step_counts`, `step_sizes` and `wall_clock_seconds`.
They bind no verdict, but the verifier checks what follows from the bound
fields alone (see below).  The replay derives
`cause` and `environment` exactly, so both are checked.  A Krawczyk run
has one preconditioner, the top-level `preconditioner`: the prover's job
gives none, so `certify` takes the midpoint inverse of the first
iteration's derivative enclosure (`boxes.midpoint_inverse`) and keeps it;
the replay runs under the stored one.
`step_counts.point` counts only the point steps integrated on their own:
the point rides inside the set flow's steps and hands off to its own flow
(`problems.phi_point`) from the box the first step of the section zone
records for it (`integrator.EnclosureStep.point`), at that step's size,
and `crossing_time_point` adds that step's start.  The zone ends the set
flow, so the point's own flow is as long as the zone: one step at the
defaults.  `step_sizes` lists the set flow's sizes in hex, so a replay can
re-run them without choosing them again.

The verifier audits a stored verdict without any integration.  It checks
the inputs: the schema version (4, for both kinds), the parameters (exactly
`h`, `order`, `delta`, `max_iter` and `tolerance`, with an int never a
bool), the problem block `make_problem` rebuilds and the candidate's
dimension.  It checks the shape of `step_sizes`, though not the values: one
per set step, which the step policy must take as given.  Every hex string
of the informative fields must be spelled as the prover writes it
(`float.hex`, with +0 for a zero), and the crossing times recorded together,
the set's within [0, the end of the last set step] and the point's
overlapping it, and every crossing note must exclude zero.  `step_counts`
is exactly `point` and `set`, ints >= 0, with `point` >= 1, and the notes
exactly `<guard>` and `<guard>_on_box` for each guard, exactly when the
crossing times are recorded; `wall_clock_seconds` is a finite float >= 0.
Then it replays `certify` itself on the stored enclosures, iteration k
getting record k's `f_x` and `df_X`, at the cap `rootfind.MAX_ITER`, and
builds the record of the replayed run, without evaluations; a replay that
asks for a record past the trace fails.  The stored document must have the
writer's key set and equal it in every field that is not informative, also
as canonical JSON (`true` is not `1`), so no other `max_iter` agrees.  In
either kind the JSON body must name no key twice in one object, since
readers differ on which of the two they keep.  A convexity document must
be one `verify_convexity` writes: closed key sets at the top level and in
every row, the writer's `problem` and `parameters` as canonical JSON (the
Eight at `convexity.POLICY`, h 0.01 and order 7), rows in step and body
order that all passed, each meeting its condition under the prover's own
rule `condition_holds`, and a verdict that fails exactly when it states a
failure.  Once the body agrees, the text after it
must be empty or exactly the writer's decimal rendering of it, which both
kinds read from the body alone.  So the comment block cannot state another
verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .boxes import IntervalMatrix, IntervalVector
from .convexity import (AXES, POLICY, ConvexityCertificate, condition,
                        condition_holds, starts_before_crossing)
from .errors import ChoreoCertError
from .integrator import StepPolicy, run_time
from .interval import Interval, rounding_backend
from .problems import ChoreographyProblem, MapEvaluation, make_problem
from .rootfind import (MAX_ITER, CertificationJob, CertificationOutcome,
                       certify)

SCHEMA_VERSION = 4
_EXISTENCE_PARAMETERS = frozenset({"h", "order", "delta", "max_iter",
                                   "tolerance"})
# Existence fields that describe how the run went, not what it proved.
_INFORMATIVE = frozenset({"crossing_time_point", "crossing_time_set",
                          "crossing_notes", "step_counts", "step_sizes",
                          "wall_clock_seconds"})
_COMMENT_HEADER = "# --- decimal rendering (informative) ---"
# == takes true for 1 and 7.0 for 7; canonical JSON does not
_canonical = json.JSONEncoder(sort_keys=True).encode


def _hex_vec(v: np.ndarray) -> list[str]:
    return [float(x).hex() for x in np.asarray(v, float)]


def _unhex_vec(data) -> np.ndarray:
    return np.array([float.fromhex(s) for s in data])


def _hex_float(x: float | None):
    return None if x is None else float(x).hex()


def _hex_rows(m: np.ndarray | None):
    return None if m is None else [_hex_vec(row) for row in m]


def _to_hex(value):
    """An interval, box or matrix in hex; None stays None."""
    return None if value is None else list(value.to_hex())


def _comment_block(lines: list[str]) -> str:
    """The text after a document's JSON body: the header, then `lines`."""
    return "\n" + "\n".join([_COMMENT_HEADER, *lines]) + "\n"


def _problem_block(problem: ChoreographyProblem) -> dict:
    return {"id": problem.key, "n_bodies": problem.orbit_bodies,
            "reduced_dim": problem.reduced_dim,
            "reduced_names": list(problem.reduced_names),
            "size_parameter": _hex_float(problem.size_parameter)}


@lru_cache(maxsize=16)
def rebuild_problem(problem_id: str, a_hex: str | None) -> ChoreographyProblem:
    """The problem a document's id and hex size parameter name, built once
    per process; raises ValueError for an unknown id."""
    a_text = None if a_hex is None else repr(float.fromhex(a_hex))
    return make_problem(problem_id, a_text=a_text)


@dataclass
class ProofCertificate:
    """The record of one certification run, from which its document
    derives: the problem, the job, the outcome `certify` returned, the step
    policy, `delta`, and the certified map's last point and set evaluations
    (None in the verifier's replay, which integrates nothing)."""

    problem: ChoreographyProblem
    job: CertificationJob
    outcome: CertificationOutcome
    policy: StepPolicy
    delta: float
    point: MapEvaluation | None = None
    set: MapEvaluation | None = None
    wall_clock_seconds: float = 0.0

    def body(self) -> dict:
        """The document's JSON body."""
        job, out = self.job, self.outcome
        first = out.trace[0]
        point = self.point.crossing if self.point is not None else None
        flow = self.set.crossing if self.set is not None else None
        notes = {}
        if self.set is not None:
            notes.update({f"{k}_on_box": v for k, v in self.set.notes.items()})
        if self.point is not None:
            notes.update(self.point.notes)
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "existence",
            "problem": _problem_block(self.problem),
            "method": job.method,
            "parameters": {
                "h": _hex_float(self.policy.h),
                "order": self.policy.order,
                "delta": _hex_float(self.delta),
                "max_iter": MAX_ITER,
                "tolerance": _hex_float(self.policy.tol),
            },
            "candidate": _hex_vec(job.x0),
            "box": job.X.to_hex(),
            "phi_at_candidate": first.f_x.to_hex(),
            "dphi_on_box": first.df_X.to_hex(),
            "preconditioner": _hex_rows(first.C),
            "operator_image": _to_hex(out.operator_image),
            "refined_box": _to_hex(out.refined_box),
            "verdict": out.verdict,
            "cause": out.cause,
            "iterations": out.iterations,
            "trace": [{"index": k, "x": _hex_vec(rec.x),
                       "X": rec.X.to_hex(), "f_x": rec.f_x.to_hex(),
                       "df_X": rec.df_X.to_hex(), "C": _hex_rows(rec.C),
                       "image": _to_hex(rec.image), "relation": rec.relation}
                      for k, rec in enumerate(out.trace, 1)],
            "crossing_time_point": _to_hex(point.t_cross if point else None),
            "crossing_time_set": _to_hex(flow.t_cross if flow else None),
            "crossing_notes": {k: _to_hex(v) for k, v in sorted(notes.items())},
            "step_counts": {"point": len(point.steps) if point else 0,
                            "set": len(flow.steps) if flow else 0},
            "step_sizes": _hex_vec([rec.h for rec in flow.steps] if flow
                                   else []),
            "wall_clock_seconds": self.wall_clock_seconds,
            "environment": {"rounding_backend": rounding_backend()},
        }

    def to_document(self) -> str:
        body = self.body()
        return (json.dumps(body, sort_keys=True, indent=1)
                + _existence_comment(body))


def _existence_comment(body: dict) -> str:
    """The decimal rendering that follows an existence document's JSON body,
    read from the body alone: the verdict line, the candidate, the size
    parameter, the defect and the operator image."""
    pb = body["problem"]
    lines = [f"# system: {pb['id']}  method: {body['method']}  "
             f"verdict: {body['verdict']}",
             "# candidate: (" + ", ".join(
                 f"{x:.17g}" for x in _unhex_vec(body["candidate"])) + ")"]
    if pb["size_parameter"] is not None:
        lines.append(f"# size parameter a = "
                     f"{float.fromhex(pb['size_parameter']):.17g}")
    defect = IntervalVector.from_hex(body["phi_at_candidate"])
    for i, iv in enumerate(defect):
        lines.append(f"# defect[{i}] = [{iv.lo:.8e}, {iv.hi:.8e}]  "
                     f"diam {iv.diam():.3e}")
    if body["operator_image"] is not None:
        image = IntervalVector.from_hex(body["operator_image"])
        for i, iv in enumerate(image):
            lines.append(f"# image[{i}] = [{iv.lo:.17g}, {iv.hi:.17g}]")
    return _comment_block(lines)


def parse_document(text: str) -> dict:
    """JSON body of a certificate document (comments ignored)."""
    return json.JSONDecoder().raw_decode(text)[0]


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct: a reader that keeps the
    first of two equal keys would see another document than one keeping
    the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        key = next(k for k in keys if keys.count(k) > 1)
        raise ValueError(f"the key {key!r} repeats in one object")
    return obj


_STRICT = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_step_policy(parameters: dict, step_sizes=()) -> StepPolicy:
    """The step policy of a document's `parameters` and hex `step_sizes`;
    raises ValueError where the policy refuses them."""
    tol = parameters.get("tolerance")
    return StepPolicy(float.fromhex(parameters["h"]), parameters["order"],
                      None if tol is None else float.fromhex(tol),
                      tuple(float.fromhex(v) for v in step_sizes))


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

    An existence document is replayed through `certify` on its stored
    defect and derivative enclosures (bit-identical arithmetic, no
    integration) and must be the document the writer makes of that run.  A
    document that cannot be read (a missing field, a wrong type, a bad hex
    string, text that is not JSON) gets a FAIL line, like any other
    disagreement.
    """
    rep = VerificationReport(ok=True)
    try:
        body, end = _STRICT.raw_decode(text)
        kind = body.get("kind")
        version = body.get("schema_version")
        rep.add(type(version) is int and version == SCHEMA_VERSION,
                f"schema version {version!r} is {SCHEMA_VERSION}")
        if kind == "existence":
            _reverify_existence(body, rep)
        elif kind == "convexity":
            _reverify_convexity(body, rep)
        else:
            rep.add(False, f"unknown certificate kind {kind!r}")
        wall = body.get("wall_clock_seconds")
        rep.add(type(wall) is float and math.isfinite(wall) and wall >= 0.0,
                "the wall clock is a finite float >= 0 seconds")
        if rep.ok:
            # the body agrees, so its writer's rendering is the only block
            rendering = (_existence_comment if kind == "existence"
                         else _convexity_comment)(body)
            comment = text[end:]
            rep.add(not comment.strip() or comment == rendering,
                    "the decimal rendering is absent or the one the writer "
                    "makes of the body")
    except _MALFORMED as exc:
        rep.add(False, f"malformed document: {type(exc).__name__}: {exc}")
    return rep


def _reverify_existence(body: dict, rep: VerificationReport) -> None:
    """Check an existence document by replaying `certify` on its stored
    enclosures."""
    pb, params = body["problem"], body["parameters"]
    if set(params) != _EXISTENCE_PARAMETERS:
        rep.add(False, f"parameters {sorted(params)} are exactly "
                       f"{sorted(_EXISTENCE_PARAMETERS)}")
        return
    a_hex = pb["size_parameter"]
    delta = float.fromhex(params["delta"])
    try:
        policy, refusal = read_step_policy(params, body["step_sizes"]), ""
    except ValueError as exc:
        policy, refusal = None, f" ({exc})"
    rep.add(isinstance(pb["id"], str) and policy is not None
            and math.isfinite(delta) and delta > 0.0
            and (a_hex is None or math.isfinite(float.fromhex(a_hex))),
            "problem and parameters are readable, delta > 0, and h, order, "
            "tolerance and step sizes make a step policy" + refusal)
    rep.add(len(body["step_sizes"]) == body["step_counts"]["set"],
            "one step size per set step")
    try:
        problem = rebuild_problem(pb["id"], a_hex)
    except ValueError as exc:
        rep.add(False, f"problem {pb['id']!r} with size parameter {a_hex!r} "
                       f"cannot be rebuilt: {exc}")
        return
    rep.add(pb == _problem_block(problem),
            "problem block is the one make_problem rebuilds")
    _reverify_flow_fields(body, problem, rep)
    rep.add(len(body["candidate"]) == problem.reduced_dim,
            "candidate has the problem's reduced dimension")
    if not rep.ok:
        return

    # Replay the prover's loop on the stored enclosures, record k for the
    # k-th call of `enclose`
    records = iter([(IntervalVector.from_hex(r["f_x"]),
                     IntervalMatrix.from_hex(r["df_X"])) for r in body["trace"]])
    C = body["preconditioner"]
    candidate = _unhex_vec(body["candidate"])
    job = CertificationJob(
        enclose=lambda x, X: next(records), x0=candidate,
        X=IntervalVector.box(candidate, delta), method=body["method"],
        C=None if C is None else np.array([_unhex_vec(row) for row in C]))
    try:
        outcome = certify(job)
    except StopIteration:  # `next` past the last record, out of `certify`
        rep.add(False, f"the trace's {len(body['trace'])} record(s) serve "
                       "every iteration of the replay")
        return
    rebuilt = ProofCertificate(problem, job, outcome, policy, delta).body()
    rep.add(set(body) == set(rebuilt),
            "top-level keys are exactly the ones the prover writes")
    fields = sorted(set(rebuilt) - _INFORMATIVE)
    for key in fields:
        rep.add(body.get(key) == rebuilt[key],
                f"{key.replace('_', ' ')} is the one the replay writes")
    rep.add(_canonical([body.get(k) for k in fields])
            == _canonical([rebuilt[k] for k in fields]),
            "every field has the JSON type the prover writes")


def _reverify_flow_fields(body: dict, problem: ChoreographyProblem,
                          rep: VerificationReport) -> None:
    """Check the informative fields against what the prover can write,
    without integration: their hex spellings, step counts and note names
    that follow from whether the crossing times are recorded, crossing
    times that the set flow's steps cover and that overlap, and notes that
    exclude zero."""
    times = (body["crossing_time_set"], body["crossing_time_point"])
    recorded = None not in times
    counts = body["step_counts"]
    rep.add(set(counts) == {"point", "set"}
            and all(type(v) is int and v >= 0 for v in counts.values())
            and (counts["point"] >= 1) == recorded,
            "step counts are exactly point and set, ints >= 0, with point "
            "steps exactly when the crossing times are recorded")
    names = [name for name, _ in problem.guards] if recorded else []
    rep.add(set(body["crossing_notes"])
            == {*names, *(f"{name}_on_box" for name in names)},
            "crossing notes name each guard at the point and on the box "
            "exactly when the crossing times are recorded")
    notes = list(body["crossing_notes"].values())
    spelled = [*body["step_sizes"],
               *(e for t in times if t is not None for e in t),
               *(e for note in notes for e in note)]
    # `Interval` stores a zero as +0, and + 0.0 maps -0 to +0
    rep.add(all((float.fromhex(s) + 0.0).hex() == s for s in spelled),
            "crossing times, crossing notes and step sizes are spelled as "
            "the prover writes them")
    rep.add(all(not Interval.from_hex(*note).contains_zero() for note in notes),
            "every crossing note excludes zero")
    if not recorded:
        rep.add(times == (None, None),
                "the set and point crossing times are recorded together")
        return
    t_set, t_point = (Interval.from_hex(*t) for t in times)
    # the end of the last step as the flow stamps it, its start plus its
    # size; `run_time` of all sizes sums them in another order
    sizes = [float.fromhex(v) for v in body["step_sizes"]]
    rep.add(bool(sizes) and 0.0 <= t_set.lo and t_set.hi
            <= (run_time(sizes[:-1]) + Interval(0.0, sizes[-1])).hi,
            "the set crossing time lies within [0, the end of the last set "
            "step]")
    rep.add(not t_point.disjoint(t_set),
            "the point crossing time overlaps the set crossing time")


# --- convexity certificates ------------------------------------------------

_CONVEXITY_KEYS = frozenset({
    "schema_version", "kind", "problem", "parameters", "passed", "failure",
    "steps_checked", "origin_in_first_step", "crossing_time", "checks",
    "wall_clock_seconds", "environment"})
_CONVEXITY_ROW = frozenset({"step", "body", "axis", "condition", "rate",
                            "slope", "second", "third", "passed"})
# Every convexity document's problem and parameters: `verify_convexity`
# flows the Eight under `POLICY`.
_CONVEXITY_SETTING = {"problem": "eight", "parameters": {
    "h": _hex_float(POLICY.h), "order": POLICY.order}}


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
            "passed": True,
        })
    body = {
        "schema_version": SCHEMA_VERSION,
        "kind": "convexity",
        **_CONVEXITY_SETTING,
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
    return json.dumps(body, sort_keys=True, indent=1) + _convexity_comment(body)


def _convexity_comment(body: dict) -> str:
    """The decimal rendering that follows a convexity document's JSON body,
    read from the body alone: the verdict line and the rows of steps 1, 2
    and 37."""
    params = body["parameters"]
    lines = [f"# convexity of {body['problem']}: "
             f"{'PASS' if body['passed'] else 'FAIL'} over "
             f"{body['steps_checked']} steps at "
             f"h={float.fromhex(params['h'])}, order={params['order']}"]
    for c in body["checks"]:
        if c["step"] in (1, 2, 37):
            rate, second, third = ([float.fromhex(e) for e in c[k]]
                                   for k in ("rate", "second", "third"))
            lines.append(
                f"# step {c['step']} body {c['body']} "
                f"[{c['axis']}, {c['condition']}]: "
                f"rate [{rate[0]:.6g},{rate[1]:.6g}] "
                f"second [{second[0]:.6g},{second[1]:.6g}] "
                f"third [{third[0]:.6g},{third[1]:.6g}]")
    return _comment_block(lines)


def _reverify_convexity(body: dict, rep: VerificationReport) -> None:
    """Re-check every stored row with the prover's own rule,
    `condition_holds`, and that the document is one `verify_convexity`
    writes: closed key sets, the writer's problem, parameters and
    rounding rule, rows of finite ordered intervals for each of its three
    bodies step by step, each naming the condition of its piece and marked
    passed, and a verdict that fails exactly when a failure is stated.  A passing
    document must cover every step that starts before the crossing time and
    have the origin in the first step."""
    rep.add(set(body) == _CONVEXITY_KEYS,
            "top-level keys are exactly the ones the prover writes")
    rep.add(_canonical({k: body[k] for k in _CONVEXITY_SETTING})
            == _canonical(_CONVEXITY_SETTING),
            f"problem and parameters are the prover's: eight at h "
            f"{POLICY.h!r} and order {POLICY.order}")
    rep.add(body.get("environment") == {"rounding_backend": rounding_backend()},
            "environment names the kernels' rounding rule")
    rep.add(all(set(c) == _CONVEXITY_ROW for c in body["checks"]),
            "every row's keys are exactly the ones the prover writes")
    rows = body["checks"]
    n = body["steps_checked"]
    if not all(type(v) is int for c in rows for v in (c["step"], c["body"])):
        rep.add(False, "every row's step and body are ints")
        return

    spelled = []

    def lanes(key):
        stored = [c[key] for c in rows]
        ends = [(float.fromhex(lo), float.fromhex(hi)) for lo, hi in stored]
        # as `Interval.to_hex` spells them, so +0 for a zero
        spelled.append([[(lo + 0.0).hex(), (hi + 0.0).hex()]
                        for lo, hi in ends] == stored)
        lo, hi = np.array(ends).reshape(-1, 2).T
        if not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)):
            raise ValueError(f"a row's {key} is not a finite ordered interval")
        return lo, hi

    lanes("slope")      # no rule reads it, but it must be an interval too
    holds = condition_holds(np.array([c["step"] for c in rows], int),
                            np.array([c["body"] for c in rows], int),
                            lanes("rate"), lanes("second"), lanes("third"))
    for c, ok in zip(rows, holds):
        rep.add(bool(ok) and c["axis"] in AXES and c["passed"] is True,
                f"step {c['step']} body {c['body']}: axis {c['axis']!r} is "
                "y_of_x or x_of_y, the row passed and its condition holds")
    times = body["crossing_time"]
    t_cross = None if times is None else Interval.from_hex(*times)
    rep.add(all(spelled) and (times is None or list(t_cross.to_hex()) == times),
            "every row value and the crossing time are spelled as the "
            "prover writes them")
    passed = body["passed"]
    rep.add(type(passed) is bool and isinstance(body["failure"], str)
            and passed == (body["failure"] == ""),
            "stored verdict passes exactly when no failure is stated")

    # as many expected rows as stored ones: the count is not trusted yet
    complete = type(n) is int and len(rows) == 3 * n
    expected = [(k // 3 + 1, k % 3 + 1) for k in range(len(rows))]
    rep.add(type(n) is int and len(rows) <= 3 * n
            and [(c["step"], c["body"], c["condition"]) for c in rows]
            == [(k, b, condition(k, b)) for k, b in expected]
            and (passed is not True or complete),
            f"rows run step by step over bodies 1..3 up to step {n!r}, each "
            "naming its piece's condition")
    if passed is not True:
        return
    rep.add(body["origin_in_first_step"] is True,
            "origin lies in the first step enclosure")
    if t_cross is None:
        rep.add(False, "a passing document records its crossing time")
        return
    rep.add(complete and n >= 1
            and starts_before_crossing(run_time([POLICY.h] * (n - 1)), t_cross)
            and not starts_before_crossing(run_time([POLICY.h] * n), t_cross),
            f"step {n} is the last step that begins before the crossing time")
