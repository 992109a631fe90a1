"""Command-line prover.

Subcommands:

* prove       run a certification (Newton or Krawczyk) and write a
              machine-checkable certificate
* convexity   verify lobe convexity of the Eight (inline existence proof or
              from an existing certificate, re-verified first)
* refine      nonrigorous Newton refinement of a candidate point
* emit-curve  unfold a certified segment (re-verified first) into the full
              closed curve
* verify      re-check a certificate from its serialized intervals only

Exit codes: 0 certified (UniqueZero, or NoZero with --expect-no-zero),
2 inconclusive / convexity failure, 3 unexpected NoZero, 4 integrator or
refinement failure, 1 verifier disagreement, 64 usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .boxes import IntervalVector
from .certificates import (
    ProofCertificate,
    convexity_to_document,
    parse_document,
    reverify_document,
    trace_to_json,
)
from .convexity import verify_convexity
from .curves import unfold, write_curve_file, write_segment_file
from .errors import (
    ChoreoCertError,
    CollisionEnclosure,
    Diverged,
    GluingMismatch,
    NoCrossing,
    NonTransversal,
    RoughEnclosureFailure,
)
from .interval import rounding_backend
from .pointflow import monodromy_preconditioner, refine_candidate
from .problems import make_problem, phi_jacobian, phi_point
from .rootfind import CertifiableMap, CertificationJob, certify

EXIT_OK = 0
EXIT_VERIFY_DISAGREE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_ZERO = 3
EXIT_INTEGRATOR = 4
EXIT_USAGE = 64

# Replay defaults: candidate points, methods and step sizes for the three
# reference orbits.
DEFAULTS = {
    "eight": {
        "candidate": (0.347116768716, 0.532724944657),
        "method": "newton", "h": 0.01, "order": 7, "delta": 1e-6, "a": None,
    },
    "gerver": {
        "candidate": (1.382857, 1.87193510824, 0.584872579881),
        "method": "krawczyk", "h": 0.002, "order": 6, "delta": 1e-7,
        "a": "0.157029944461",
    },
    "chain6": {
        "candidate": (-0.635277524319, 0.140342838651, 0.797833002006,
                      0.100637737317, -2.03152227864),
        "method": "krawczyk", "h_point": 0.0025, "h_set": 0.001, "order": 9,
        "delta": 1e-9, "a": "1.887041548253914",
    },
}

_RETRY_HALVINGS = 3


class _UsageError(Exception):
    pass


def _problem(system: str, bodies, a_text):
    """make_problem, with a bad system description as a usage error."""
    try:
        return make_problem(system, n_bodies=bodies, a_text=a_text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",") if p.strip()])
    except ValueError as exc:
        raise _UsageError(f"not a comma-separated float list: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="choreocert", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("prove", help="run a certification and emit a certificate")
    pr.add_argument("--system", required=True,
                    help="eight, gerver, chain6, chain (or a comma list)")
    pr.add_argument("--bodies", type=int, help="body count for --system chain")
    pr.add_argument("--method", choices=("newton", "krawczyk"))
    pr.add_argument("--h", type=float, help="time step for point and set runs")
    pr.add_argument("--h-point", type=float, help="time step for the point run")
    pr.add_argument("--h-set", type=float, help="time step for the set run")
    pr.add_argument("--order", type=int)
    pr.add_argument("--delta", type=float, help="initial box half-width")
    pr.add_argument("--a", help="orbit size parameter (decimal literal)")
    pr.add_argument("--max-iter", type=int, default=64)
    pr.add_argument("--max-steps", type=int)
    pr.add_argument("--candidate", help="comma-separated reduced coordinates")
    pr.add_argument("--out", help="certificate file (directory for multiple systems)")
    pr.add_argument("--expect-no-zero", action="store_true")
    pr.add_argument("--jobs", type=int, default=1)

    cv = sub.add_parser("convexity", help="verify lobe convexity of the Eight")
    cv.add_argument("--h", type=float, default=0.01)
    cv.add_argument("--order", type=int, default=7)
    cv.add_argument("--delta", type=float, default=1e-6)
    cv.add_argument("--candidate")
    cv.add_argument("--cert", help="existing Eight existence certificate")
    cv.add_argument("--no-inline", action="store_true",
                    help="fail instead of proving existence inline")
    cv.add_argument("--out")

    rf = sub.add_parser("refine", help="nonrigorous candidate refinement")
    rf.add_argument("--system", required=True)
    rf.add_argument("--bodies", type=int)
    rf.add_argument("--a")
    rf.add_argument("--guess", required=True)
    rf.add_argument("--iters", type=int, default=12)

    em = sub.add_parser("emit-curve", help="unfold a certificate to curve samples")
    em.add_argument("--cert", required=True)
    em.add_argument("--out", required=True)
    em.add_argument("--segment-out")
    em.add_argument("--h", type=float)
    em.add_argument("--order", type=int)

    vf = sub.add_parser("verify", help="re-check a certificate without integration")
    vf.add_argument("--cert", required=True)
    vf.add_argument("--quiet", action="store_true")
    return p


def _resolve_prove_params(args, system: str) -> dict:
    d = DEFAULTS.get(system, {})
    h_point = args.h_point or args.h or d.get("h_point") or d.get("h")
    h_set = args.h_set or args.h or d.get("h_set") or d.get("h")
    method = args.method or d.get("method")
    order = args.order or d.get("order")
    delta = args.delta or d.get("delta")
    a_text = args.a or d.get("a")
    if args.candidate:
        candidate = _parse_vector(args.candidate)
    elif "candidate" in d:
        candidate = np.array(d["candidate"])
    else:
        raise _UsageError(f"--candidate is required for system {system!r} "
                          "(run 'refine' first)")
    missing = [k for k, v in (("--method", method), ("--order", order),
                              ("--delta", delta), ("--h", h_point),
                              ("--h(-set)", h_set)) if v is None]
    if missing:
        raise _UsageError(
            f"missing {', '.join(missing)} for system {system!r}")
    _problem(system, args.bodies, a_text)  # a bad system fails here, as usage
    return dict(system=system, bodies=args.bodies, a_text=a_text,
                method=method, h_point=float(h_point), h_set=float(h_set),
                order=int(order), delta=float(delta), candidate=candidate,
                max_iter=args.max_iter, max_steps=args.max_steps)


def run_certification(system: str, bodies, a_text, method, h_point, h_set,
                      order, delta, candidate, max_iter=64, max_steps=None):
    """One certification run; returns (certificate, outcome)."""
    problem = make_problem(system, n_bodies=bodies, a_text=a_text)
    started = time.perf_counter()

    record: dict = {}

    def eval_point(x):
        ev = phi_point(problem, x, h_point, order, max_steps)
        record["point"] = ev.crossing
        if ev.notes:
            record.setdefault("notes", {}).update(ev.notes)
        return ev.value

    def eval_jacobian(box):
        ev = phi_jacobian(problem, box, h_set, order, max_steps)
        record["set"] = ev.crossing
        if ev.notes:
            record.setdefault("notes", {}).update(
                {f"{k}_on_box": v for k, v in ev.notes.items()})
        return ev.jacobian

    cmap = CertifiableMap(dimension=problem.reduced_dim,
                          eval_point=eval_point, eval_jacobian=eval_jacobian)
    X = IntervalVector.box(candidate, delta)
    C = None
    if method == "krawczyk":
        try:
            C = monodromy_preconditioner(problem, candidate)
        except (Diverged, np.linalg.LinAlgError):
            C = None  # certify falls back to the midpoint Jacobian inverse
    job = CertificationJob(map=cmap, x0=candidate, X=X, method=method,
                           C=C, max_iter=max_iter)
    outcome = certify(job)

    first = outcome.trace[0] if outcome.trace else None
    cert = ProofCertificate(
        problem_id=problem.key,
        n_bodies=problem.orbit_bodies,
        reduced_dim=problem.reduced_dim,
        reduced_names=problem.reduced_names,
        size_parameter=problem.size_parameter,
        method=method,
        h_point=h_point, h_set=h_set, order=order, delta=delta,
        max_iter=max_iter,
        candidate=np.asarray(candidate, float),
        box=X,
        phi_at_candidate=first.f_x if first else None,
        dphi_on_box=first.df_X if first else None,
        preconditioner=C if method == "krawczyk" else None,
        operator_image=outcome.operator_image,
        refined_box=outcome.refined_box,
        verdict=outcome.verdict,
        cause=outcome.cause,
        iterations=outcome.iterations,
        trace=trace_to_json(outcome),
        crossing_time_point=record["point"].t_cross if "point" in record else None,
        crossing_time_set=record["set"].t_cross if "set" in record else None,
        steps_point=len(record["point"].steps) if "point" in record else 0,
        steps_set=len(record["set"].steps) if "set" in record else 0,
        crossing_notes=record.get("notes", {}),
        wall_clock_seconds=time.perf_counter() - started,
        rounding=rounding_backend(),
    )
    return cert, outcome


def _prove_one(args_dict: dict, out_path: str | None,
               expect_no_zero: bool) -> int:
    params = dict(args_dict)
    system = params.pop("system")
    h_point = params.pop("h_point")
    h_set = params.pop("h_set")
    for attempt in range(_RETRY_HALVINGS + 1):
        try:
            cert, outcome = run_certification(
                system, params["bodies"], params["a_text"], params["method"],
                h_point, h_set, params["order"], params["delta"],
                params["candidate"], params["max_iter"], params["max_steps"])
        except (RoughEnclosureFailure,) as exc:
            print(f"{system}: {exc}; halving the step size", file=sys.stderr)
            h_point *= 0.5
            h_set *= 0.5
            continue
        except (CollisionEnclosure, NoCrossing, NonTransversal) as exc:
            print(f"{system}: integration failed: {exc}", file=sys.stderr)
            return EXIT_INTEGRATOR
        if outcome.verdict == "Inconclusive" and attempt < _RETRY_HALVINGS:
            print(f"{system}: inconclusive ({outcome.cause}); halving the "
                  "step size", file=sys.stderr)
            h_point *= 0.5
            h_set *= 0.5
            continue
        break
    else:
        print(f"{system}: step-size retries exhausted", file=sys.stderr)
        return EXIT_INTEGRATOR

    path = out_path or f"{system}.cert"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cert.to_document())
    print(f"{system}: {outcome.verdict} after {outcome.iterations} "
          f"iteration(s) in {cert.wall_clock_seconds:.2f}s "
          f"-> {path}")
    if outcome.verdict == "UniqueZero":
        return EXIT_OK
    if outcome.verdict == "NoZero":
        return EXIT_OK if expect_no_zero else EXIT_NO_ZERO
    print(f"{system}: {outcome.cause}", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def _cmd_prove(args) -> int:
    systems = [s.strip() for s in args.system.split(",") if s.strip()]
    jobs = []
    for system in systems:
        params = _resolve_prove_params(args, system)
        if len(systems) == 1:
            out = args.out
        else:
            base = args.out or "."
            os.makedirs(base, exist_ok=True)
            out = os.path.join(base, f"{system}.cert")
        jobs.append((params, out, args.expect_no_zero))
    if len(jobs) == 1 or args.jobs <= 1:
        codes = [_prove_one(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_prove_one, *job) for job in jobs]
            codes = [f.result() for f in futures]
    return max(codes)


def _read_verified(command: str, path: str) -> dict | None:
    """Body of the certificate at `path`, or None (after printing the first
    failed check) when the no-integration verifier disagrees with it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    report = reverify_document(text)
    if not report.ok:
        first = next(m for m in report.messages if m.startswith("FAIL"))
        print(f"{command}: {path} does not verify: {first}", file=sys.stderr)
        return None
    return parse_document(text)


def _cmd_convexity(args) -> int:
    problem = make_problem("eight")
    if args.cert:
        body = _read_verified("convexity", args.cert)
        if body is None:
            return EXIT_VERIFY_DISAGREE
        if body.get("kind") != "existence" or body["problem"]["id"] != "eight" \
                or body["verdict"] != "UniqueZero":
            print("convexity: --cert must be an Eight UniqueZero certificate",
                  file=sys.stderr)
            return EXIT_USAGE
        box = IntervalVector.from_hex(body["refined_box"])
    elif args.no_inline:
        print("convexity: no certificate given and --no-inline set",
              file=sys.stderr)
        return EXIT_USAGE
    else:
        candidate = (_parse_vector(args.candidate) if args.candidate
                     else np.array(DEFAULTS["eight"]["candidate"]))
        cert0, outcome = run_certification(
            "eight", None, None, "newton", args.h, args.h, args.order,
            args.delta, candidate)
        if outcome.verdict != "UniqueZero":
            print(f"convexity: inline existence proof gave {outcome.verdict}",
                  file=sys.stderr)
            return EXIT_INCONCLUSIVE
        box = outcome.refined_box

    started = time.perf_counter()
    try:
        cert = verify_convexity(problem, box, args.h, args.order)
    except (RoughEnclosureFailure, CollisionEnclosure, NoCrossing,
            NonTransversal) as exc:
        print(f"convexity: integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    doc = convexity_to_document(cert, time.perf_counter() - started)
    path = args.out or "eight-convexity.cert"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    state = "PASS" if cert.passed else f"FAIL ({cert.failure})"
    print(f"convexity: {state}, {cert.steps_checked} steps -> {path}")
    return EXIT_OK if cert.passed else EXIT_INCONCLUSIVE


def _cmd_refine(args) -> int:
    problem = _problem(args.system, args.bodies, args.a)
    guess = _parse_vector(args.guess)
    try:
        refined = refine_candidate(problem, guess, iters=args.iters)
    except Diverged as exc:
        print(f"refine: diverged: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    print("refined candidate:")
    print("  decimal:", ", ".join(f"{x:.15g}" for x in refined))
    print("  hex:    ", ", ".join(float(x).hex() for x in refined))
    return EXIT_OK


def _cmd_emit_curve(args) -> int:
    body = _read_verified("emit-curve", args.cert)
    if body is None:
        return EXIT_VERIFY_DISAGREE
    if body.get("kind") != "existence" or body["verdict"] != "UniqueZero":
        print("emit-curve: need a UniqueZero existence certificate",
              file=sys.stderr)
        return EXIT_USAGE
    pb = body["problem"]
    a_hex = pb.get("size_parameter")
    a_text = repr(float.fromhex(a_hex)) if a_hex else None
    problem = _problem(pb["id"], None, a_text)
    box = IntervalVector.from_hex(body["refined_box"])
    params = body["parameters"]
    h = args.h or float.fromhex(params["h_set"])
    order = args.order or int(params["order"])
    try:
        ev = phi_jacobian(problem, box, h, order)
        result = unfold(problem, ev.crossing)
    except GluingMismatch as exc:
        print(f"emit-curve: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (RoughEnclosureFailure, CollisionEnclosure, NoCrossing,
            NonTransversal) as exc:
        print(f"emit-curve: integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    write_curve_file(args.out, problem, result)
    if args.segment_out:
        write_segment_file(args.segment_out, problem, result)
    print(f"emit-curve: {result.curve.shape[0]} samples, period "
          f"[{result.period.lo:.9f}, {result.period.hi:.9f}] -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.cert, encoding="utf-8") as fh:
        report = reverify_document(fh.read())
    if not args.quiet:
        for line in report.messages:
            print(line)
    print("verify:", "AGREES" if report.ok else "DISAGREES")
    return EXIT_OK if report.ok else EXIT_VERIFY_DISAGREE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "prove":
            return _cmd_prove(args)
        if args.command == "convexity":
            return _cmd_convexity(args)
        if args.command == "refine":
            return _cmd_refine(args)
        if args.command == "emit-curve":
            return _cmd_emit_curve(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (_UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChoreoCertError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
