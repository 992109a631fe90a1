"""Command-line prover.

Subcommands:

* prove       run a certification (Newton or Krawczyk), the box flowed
              with the candidate riding inside its Lohner steps, and write
              a machine-checkable certificate; gerver and chain6 choose
              their step sizes under a tolerance from a first step h, and
              an explicit --h or --order gives every step one size
* convexity   verify lobe convexity of the Eight on the refined box of an
              existence certificate, re-verified first, at the published
              h 0.01 and order 7 (`convexity.POLICY`)
* refine      nonrigorous Newton refinement of a candidate point: plain
              Newton on the validated map of a thin box, under the system's
              default step policy (chain6's for any other chain)
* emit-curve  unfold a certified segment (re-verified first) into the full
              closed curve, flowed under the certificate's step policy (its
              h, tolerance and order)
* verify      re-check a certificate from its serialized intervals only

convexity and emit-curve read their certificate through one reader: the
no-integration verifier must agree with it, and it must be a UniqueZero
existence certificate (of the Eight, for convexity).  verify binds what no
option sets: `max_iter` to `rootfind.MAX_ITER`, and a convexity document's
problem and parameters to the Eight at `convexity.POLICY` and its
environment to the kernels' rounding rule.

Exit codes: 0 certified (UniqueZero, or NoZero with --expect-no-zero),
2 inconclusive / convexity failure, 3 unexpected NoZero, 4 integrator or
refinement failure, or kernels that cannot round down and up (every
command runs `kernels.check_rounding` first), 1 verifier disagreement, 64
usage errors: every command line argparse rejects, and every number or
option a run cannot use or does not read, among them an --h or --order the
step policy refuses.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import time

import numpy as np

from . import kernels as kn
from .boxes import IntervalVector
from .certificates import (
    ProofCertificate,
    convexity_to_document,
    parse_document,
    read_step_policy,
    rebuild_problem,
    reverify_document,
)
from .convexity import verify_convexity
from .curves import unfold, write_curve_file, write_segment_file
from .errors import (
    ChoreoCertError,
    CollisionEnclosure,
    Diverged,
    NoCrossing,
    NonTransversal,
    RoughEnclosureFailure,
    RoundingModeError,
)
from .integrator import StepPolicy
# refine_candidate's Newton step; perfbench/tracing.py spans it by this name
from .problems import monodromy_preconditioner  # noqa: F401
from .problems import make_problem, phi_jacobian, phi_point, refine_candidate
from .rootfind import CertificationJob, certify

EXIT_OK = 0
EXIT_VERIFY_DISAGREE = 1
EXIT_INCONCLUSIVE = 2
EXIT_NO_ZERO = 3
EXIT_INTEGRATOR = 4
EXIT_USAGE = 64

# Replay defaults: candidate points, methods and step sizes for the three
# reference orbits.  Each candidate is the center of its default proof's
# refined box at full precision, the certified zero, so a proof from it
# holds at any --delta down to 1e-12; the published digits lie up to 1.2e-7
# from it (README).  All three take fewer, higher-order steps than the
# published 0.01 / 7, 0.002 / 6 and 0.001 / 9, at smaller image/box ratios.
# The Eight takes the one size h, 18 steps where 0.01 / 7 takes 53.  For
# gerver and chain6 h is the first step, and "tol" the Lagrange width each
# later step is sized for (`integrator.StepPolicy`): 49 steps each.  Both
# tolerances keep the ratio ratchets of the replay tests at the defaults,
# their +-delta/4 corners and seeded candidates, each run proving on its
# first attempt; a looser tolerance takes fewer steps but widens the image.
# Any run with an explicit --h or --order takes the one size h: the
# tolerance was set for the default pair.  Every "a" is None: the published
# size parameters are `make_problem`'s.
DEFAULTS = {
    "eight": {
        "candidate": (0.34711688811892705, 0.5327249453880302),
        "method": "newton", "h": 0.03, "order": 18, "delta": 1e-6,
        "a": None, "tol": None,
    },
    "gerver": {
        "candidate": (1.3828570389408101, 1.871935113677417,
                      0.584872589509548),
        "method": "krawczyk", "h": 0.0075, "order": 16, "delta": 1e-7,
        "a": None, "tol": 5e-15,
    },
    "chain6": {
        "candidate": (-0.6352775243189919, 0.14034283865108155,
                      0.7978330020060579, 0.10063773731699234,
                      -2.0315222786429366),
        "method": "krawczyk", "h": 0.004, "order": 18, "delta": 1e-9,
        "a": None, "tol": 3e-15,
    },
}

_RETRY_HALVINGS = 3


class _UsageError(Exception):
    pass


class _Disagreement(Exception):
    """The no-integration verifier disagrees with a certificate read."""


class _Parser(argparse.ArgumentParser):
    """argparse with a rejected command line exiting EXIT_USAGE, not 2,
    which means inconclusive here, and with a value that starts with a minus
    sign and a number read as a value even when it is a comma list
    (`--guess -0.63,0.14`): argparse's own pattern takes one number only."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.,eE+-]*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _problem(system: str, bodies, a_text):
    """make_problem, with its refusal of a bad system description, or of a
    --bodies or --a the system does not read, as a usage error."""
    try:
        return make_problem(system, n_bodies=bodies, a_text=a_text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _first_given(*values):
    """The first value that is not None: an explicit option beats a default."""
    return next((v for v in values if v is not None), None)


def _parse_vector(text: str, dim: int) -> np.ndarray:
    try:
        v = np.array([float(p) for p in text.split(",") if p.strip()])
    except ValueError as exc:
        raise _UsageError(f"not a comma-separated float list: {text!r}") from exc
    if v.size != dim:
        raise _UsageError(f"{text!r} has {v.size} coordinates, not {dim}")
    if not np.all(np.isfinite(v)):
        raise _UsageError(f"{text!r} has a coordinate that is not finite")
    return v


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="choreocert", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    # full spellings only: emit-curve --h must not mean --help
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=functools.partial(
                               _Parser, allow_abbrev=False))

    pr = sub.add_parser("prove", help="run a certification and emit a certificate")
    pr.add_argument("--system", required=True,
                    help="eight, gerver, chain6, chain (or a comma list)")
    pr.add_argument("--bodies", type=int, help="body count for --system chain")
    pr.add_argument("--method", choices=("newton", "krawczyk"))
    pr.add_argument("--h", type=float, help="time step of the flow")
    pr.add_argument("--order", type=int)
    pr.add_argument("--delta", type=float, help="initial box half-width")
    pr.add_argument("--a", help="orbit size parameter (decimal literal)")
    pr.add_argument("--candidate", help="comma-separated reduced coordinates")
    pr.add_argument("--out", help="certificate file (directory for multiple systems)")
    pr.add_argument("--expect-no-zero", action="store_true")

    cv = sub.add_parser("convexity", help="verify lobe convexity of the Eight")
    cv.add_argument("--cert", required=True,
                    help="Eight existence certificate (re-verified first)")
    cv.add_argument("--out")

    rf = sub.add_parser("refine", help="nonrigorous candidate refinement")
    rf.add_argument("--system", required=True)
    rf.add_argument("--bodies", type=int)
    rf.add_argument("--a")
    rf.add_argument("--guess", required=True)

    em = sub.add_parser("emit-curve", help="unfold a certificate to curve samples")
    em.add_argument("--cert", required=True)
    em.add_argument("--out", required=True)
    em.add_argument("--segment-out")

    vf = sub.add_parser("verify", help="re-check a certificate without integration")
    vf.add_argument("--cert", required=True)
    vf.add_argument("--quiet", action="store_true")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's tree, built at the first `main` call and shared by
    every later one in the process: a parse keeps no state on the parser
    (each returns a fresh Namespace), and building it costs some 20 times
    a `verify` line's parse."""
    return build_parser()


def _resolve_prove_params(args, system: str) -> dict:
    """run_certification's arguments for one system, its problem built once."""
    d = DEFAULTS.get(system, {})
    h = _first_given(args.h, d.get("h"))
    method = _first_given(args.method, d.get("method"))
    order = _first_given(args.order, d.get("order"))
    delta = _first_given(args.delta, d.get("delta"))
    a_text = _first_given(args.a, d.get("a"))
    problem = _problem(system, args.bodies, a_text)
    if args.candidate:
        candidate = _parse_vector(args.candidate, problem.reduced_dim)
    elif "candidate" in d:
        candidate = np.array(d["candidate"])
    else:
        raise _UsageError(f"--candidate is required for system {system!r} "
                          "(run 'refine' first)")
    missing = [k for k, v in (("--method", method), ("--order", order),
                              ("--delta", delta), ("--h", h)) if v is None]
    if missing:
        raise _UsageError(
            f"missing {', '.join(missing)} for system {system!r}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise _UsageError(f"--delta must be finite and > 0, not {delta}")
    tol = d.get("tol") if args.h is None and args.order is None else None
    try:
        policy = StepPolicy(h, order, tol)
    except ValueError as exc:  # a usage error on --h or --order
        raise _UsageError(f"--{exc}") from None
    return dict(problem=problem, method=method, policy=policy,
                delta=float(delta), candidate=candidate)


def run_certification(problem, method, policy, delta, candidate):
    """One certification run under `policy`; returns (certificate, outcome)."""
    started = time.perf_counter()
    last = {}   # certify encloses at least once

    def enclose(x, box):
        # the point rides inside the box flow, and flows on from the box the
        # first zone step records for it
        last["set"] = phi_jacobian(problem, box, policy, point=x)
        last["point"] = phi_point(problem, last["set"].crossing, policy)
        return last["point"].value, last["set"].jacobian

    # no C: Krawczyk inverts the midpoint of the first DF([X]) and keeps it
    job = CertificationJob(enclose=enclose, x0=candidate,
                           X=IntervalVector.box(candidate, delta), method=method)
    outcome = certify(job)
    cert = ProofCertificate(problem, job, outcome, policy, delta, **last,
                            wall_clock_seconds=time.perf_counter() - started)
    return cert, outcome


def _prove_one(system: str, params: dict, out_path: str | None,
               expect_no_zero: bool) -> int:
    best = None   # the Inconclusive attempt with the smallest ratio
    for attempt in range(_RETRY_HALVINGS + 1):
        try:
            cert, outcome = run_certification(**params)
        except RoughEnclosureFailure as exc:
            failure = str(exc)
        except (CollisionEnclosure, NoCrossing, NonTransversal) as exc:
            print(f"{system}: integration failed: {exc}", file=sys.stderr)
            return EXIT_INTEGRATOR
        else:
            if outcome.verdict != "Inconclusive":
                break
            failure = f"inconclusive ({outcome.cause})"
            if best is None or outcome.ratio < best[1].ratio:
                best = cert, outcome
        halved = None
        if attempt < _RETRY_HALVINGS:
            try:
                halved = params["policy"].halved()
            except ValueError:  # the step policy refuses a step that small
                pass
        if halved is None:
            if best is not None:   # the best Inconclusive run's document
                cert, outcome = best
                break
            print(f"{system}: {failure}; step-size retries exhausted",
                  file=sys.stderr)
            return EXIT_INTEGRATOR
        print(f"{system}: {failure}; halving the step size", file=sys.stderr)
        params = dict(params, policy=halved)

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
    if not systems:
        raise _UsageError(f"--system names no system: {args.system!r}")
    if len(set(systems)) < len(systems):
        # one output file per system name
        raise _UsageError(f"--system names a system twice: {args.system}")
    # every system's options are checked before the first proof starts
    params = [_resolve_prove_params(args, system) for system in systems]
    if len(systems) == 1:
        return _prove_one(systems[0], params[0], args.out, args.expect_no_zero)
    base = args.out or "."
    os.makedirs(base, exist_ok=True)
    return max([_prove_one(system, p, os.path.join(base, f"{system}.cert"),
                           args.expect_no_zero)
                for system, p in zip(systems, params)])


def _read_certificate(path: str, system: str | None = None):
    """(problem, refined box, parameters) of the UniqueZero existence
    certificate at `path`, of `system` when one is named, once the
    no-integration verifier agrees with it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    report = reverify_document(text)
    if not report.ok:
        first = next(m for m in report.messages if m.startswith("FAIL"))
        raise _Disagreement(f"{path} does not verify: {first}")
    body = parse_document(text)
    if body["kind"] != "existence" or body["verdict"] != "UniqueZero" \
            or system not in (None, body["problem"]["id"]):
        raise _UsageError(f"--cert must be a UniqueZero existence "
                          f"certificate{f' of {system}' if system else ''}")
    problem = rebuild_problem(body["problem"]["id"],
                              body["problem"]["size_parameter"])
    return (problem, IntervalVector.from_hex(body["refined_box"]),
            body["parameters"])


def _cmd_convexity(args) -> int:
    _, box, _ = _read_certificate(args.cert, "eight")
    started = time.perf_counter()
    cert = verify_convexity(box)
    doc = convexity_to_document(cert, time.perf_counter() - started)
    path = args.out or "eight-convexity.cert"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    state = "PASS" if cert.passed else f"FAIL ({cert.failure})"
    print(f"convexity: {state}, {cert.steps_checked} steps -> {path}")
    return EXIT_OK if cert.passed else EXIT_INCONCLUSIVE


def _cmd_refine(args) -> int:
    problem = _problem(args.system, args.bodies, args.a)
    guess = _parse_vector(args.guess, problem.reduced_dim)
    # the system's step policy; any other chain takes chain6's
    d = DEFAULTS.get(problem.key, DEFAULTS["chain6"])
    try:
        refined = refine_candidate(problem, guess,
                                   StepPolicy(d["h"], d["order"], d["tol"]))
    except Diverged as exc:
        print(f"refine: diverged: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    print("refined candidate:")
    # repr digits read back as the same floats, so --candidate takes them
    print("  decimal:", ", ".join(repr(float(x)) for x in refined))
    print("  hex:    ", ", ".join(float(x).hex() for x in refined))
    return EXIT_OK


def _cmd_emit_curve(args) -> int:
    problem, box, params = _read_certificate(args.cert)
    ev = phi_jacobian(problem, box, read_step_policy(params))
    result = unfold(problem, ev.crossing)
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
    args = _parser().parse_args(argv)
    try:
        kn.check_rounding()
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
    except _Disagreement as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_VERIFY_DISAGREE
    except (ChoreoCertError, FloatingPointError, RoundingModeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
