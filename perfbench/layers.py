"""The traced run: per-layer metrics of every workload's operations.

One pass runs the operations of all three workloads untraced, a second runs
them again with spans and kernel counters installed (see `tracing`).  Layer
self times, step and call counts come from the traced pass; per-call costs
of the kernels, the Taylor series, the root-finding operators and the
certificate codec come from microbenchmarks at the shapes the replays use.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time

import numpy as np

from choreocert import kernels as kn
from choreocert.boxes import IntervalMatrix, IntervalVector, solve_linear
from choreocert.certificates import convexity_to_document, parse_document, reverify_document
from choreocert.cli import DEFAULTS
from choreocert.problems import make_problem
from choreocert.rootfind import krawczyk_operator, newton_operator

from .ops import Audit, Client, Convexity, Prove, check
from .tracing import NAME, OpTrace, Tracer

AUDIT_CYCLES = 25


def _per_call(fn, budget: float = 0.15, least: int = 5, most: int = 2000) -> float:
    """Median wall seconds of one call of `fn()`."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    times = []
    for _ in range(max(least, min(most, int(budget / max(first, 1e-9))))):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _slab(rng, shape):
    lo = rng.uniform(0.5, 2.0, shape)
    return lo, lo + rng.uniform(0.0, 1e-6, shape)


def _hex_matrix(rows) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows])


def microbenchmarks(systems, docs: dict, corpus: dict, conv_cert, eight_cert,
                    seed: int) -> dict:
    """Per-call costs at the replay shapes; docs are the replays' certificates."""
    rng = np.random.default_rng(seed)
    m = {}
    for s in systems:
        d = DEFAULTS[s]
        problem = make_problem(s, a_text=d["a"])
        field, R = problem.field, d["order"]
        x = np.array(d["candidate"])
        box = problem.embed(IntervalVector.box(x, d["delta"]))
        bl, bh = box.lo, box.hi
        s0 = problem.embed_point(x)
        al, ah = _slab(rng, (R + 1, len(field.terms)))
        cl, ch = _slab(rng, (R + 1, len(field.terms)))
        m[f"kernels.dot_us.{s}"] = (
            _per_call(lambda: kn.dot(al, ah, cl[::-1], ch[::-1], axis=0)) * 1e6, "us")
        var = field.series(bl, bh, R, variational=True)
        m[f"dynamics.series_plain_ms.{s}"] = (
            _per_call(lambda: field.series(s0, s0, R)) * 1e3, "ms")
        m[f"dynamics.series_var_ms.{s}"] = (
            _per_call(lambda: field.series(bl, bh, R, variational=True)) * 1e3, "ms")
        m[f"dynamics.series_var_r1_ms.{s}"] = (
            _per_call(lambda: field.series(bl, bh, R + 1, variational=True)) * 1e3, "ms")
        m[f"dynamics.transition_layers_ms.{s}"] = (
            _per_call(lambda: var.transition_layers(R)) * 1e3, "ms")
        m[f"dynamics.eval_us.{s}"] = (_per_call(lambda: field.eval(bl, bh)) * 1e6, "us")

    # add and mul at the Eight's series slab shape, matmul at the SuperEight's
    # phase-space dimension.
    al, ah = _slab(rng, (DEFAULTS["eight"]["order"] + 1, 3))
    cl, ch = _slab(rng, al.shape)
    m["kernels.add_us"] = (_per_call(lambda: kn.add(al, ah, cl, ch)) * 1e6, "us")
    m["kernels.mul_us"] = (_per_call(lambda: kn.mul(al, ah, cl, ch)) * 1e6, "us")
    al, ah = _slab(rng, (16, 16))
    cl, ch = _slab(rng, (16, 16))
    m["kernels.matmul_us.d16"] = (_per_call(lambda: kn.matmul(al, ah, cl, ch)) * 1e6, "us")

    def operands(text):
        body = parse_document(text)
        return (np.array([float.fromhex(v) for v in body["candidate"]]),
                IntervalVector.from_hex(body["box"]),
                IntervalVector.from_hex(body["phi_at_candidate"]),
                IntervalMatrix.from_hex(body["dphi_on_box"]),
                body["preconditioner"])

    x, _, fx, dfx, _ = operands(docs["eight"])
    m["rootfind.newton_us"] = (_per_call(lambda: newton_operator(x, fx, dfx)) * 1e6, "us")
    m["boxes.solve_linear_us"] = (_per_call(lambda: solve_linear(dfx, fx)) * 1e6, "us")
    for s in ("gerver", "chain6"):
        if s in docs:
            x, X, fx, dfx, C = operands(docs[s])
            C = _hex_matrix(C)
            m[f"rootfind.krawczyk_us.{s}"] = (
                _per_call(lambda: krawczyk_operator(x, X, fx, dfx, C)) * 1e6, "us")

    m["certificates.to_document_ms.existence"] = (
        _per_call(eight_cert.to_document) * 1e3, "ms")
    m["certificates.to_document_ms.convexity"] = (
        _per_call(lambda: convexity_to_document(conv_cert, 0.0)) * 1e3, "ms")
    for kind in ("existence", "nozero", "convexity"):
        text = corpus[kind]
        m[f"certificates.reverify_ms.{kind}"] = (
            _per_call(lambda: reverify_document(text)) * 1e3, "ms")
    return m


def _prove_layers(op: OpTrace, system: str, doc: str) -> tuple[dict, dict]:
    """Metrics and deterministic counters of one traced `prove` call."""
    point = op.named("integrator.step", under="problems.phi_point")
    set_ = op.named("integrator.step", under="problems.phi_jacobian")
    steps = len(point) + len(set_)
    body = parse_document(doc)
    check(body["step_counts"] == {"point": len(point), "set": len(set_)},
          f"trace of {system}: step spans disagree with the certificate's counts")
    evals = op.named("dynamics.eval")
    series = [i for i in op.named("dynamics.series")
              if not op.inside(i, "dynamics.eval")]
    crossing = sum(op.duration(f) - sum(op.duration(k) for k in op.children.get(f, ())
                                        if op.spans[k][NAME] == "integrator.step")
                   for f in op.named("integrator.flow_to_section"))
    cli_self = sum(op.self_time[i] for i in
                   op.named("cli.main") + op.named("cli.run_certification"))
    calls = sum(op.counts.values())
    m = {
        f"kernels.calls_per_step.{system}": (calls / steps, "count/step"),
        f"kernels.dot_calls_per_step.{system}": (op.counts["dot"] / steps, "count/step"),
        f"dynamics.series_per_step.{system}": (len(series) / steps, "count/step"),
        f"dynamics.eval_per_step.{system}": (len(evals) / steps, "count/step"),
        f"integrator.step_c0_ms.{system}": (
            statistics.median(op.duration(i) for i in point) * 1e3, "ms"),
        f"integrator.step_c1_ms.{system}": (
            statistics.median(op.duration(i) for i in set_) * 1e3, "ms"),
        f"integrator.steps_point.{system}": (len(point), "count"),
        f"integrator.steps_set.{system}": (len(set_), "count"),
        f"integrator.crossing_ms.{system}": (crossing * 1e3, "ms"),
        f"problems.phi_point_s.{system}": (op.total("problems.phi_point"), "s"),
        f"problems.phi_jacobian_s.{system}": (op.total("problems.phi_jacobian"), "s"),
        f"rootfind.iterations.{system}": (body["iterations"], "count"),
        f"cli.self_ms.{system}": (cli_self * 1e3, "ms"),
    }
    if system != "eight":
        m[f"pointflow.preconditioner_ms.{system}"] = (
            op.total("pointflow.monodromy_preconditioner") * 1e3, "ms")
    counters = {f"{system}.steps_point": len(point), f"{system}.steps_set": len(set_),
                f"{system}.series": len(series), f"{system}.eval": len(evals),
                f"{system}.kernel_calls": calls, f"{system}.dot_calls": op.counts["dot"],
                f"{system}.iterations": body["iterations"]}
    return m, counters


def _convexity_layers(op: OpTrace, doc: str) -> tuple[dict, dict]:
    steps = len(op.named("integrator.step"))
    checks = len(parse_document(doc)["checks"])
    flow = op.total("integrator.flow_to_section")
    check_s = op.total("convexity.verify_convexity") - flow
    m = {"integrator.steps_convexity": (steps, "count"),
         "convexity.flow_s": (flow, "s"),
         "convexity.check_step_us": (check_s / checks * 1e6, "us"),
         "convexity.checks": (checks, "count")}
    counters = {"convexity.steps": steps, "convexity.checks": checks,
                "convexity.eval": len(op.named("dynamics.eval")),
                "convexity.series": len([i for i in op.named("dynamics.series")
                                         if not op.inside(i, "dynamics.eval")]),
                "convexity.kernel_calls": sum(op.counts.values())}
    return m, counters


def _dynamics_share(ops: list[OpTrace]) -> float:
    return (sum(op.self_by_layer().get("dynamics", 0.0) for op in ops)
            / sum(op.wall for op in ops))


@contextlib.contextmanager
def _traced(client: Client, tracer: Tracer):
    with tracer.installed():
        client.tracer = tracer
        try:
            yield
        finally:
            client.tracer = None


def probe(client: Client, systems, seed: int, traced_passes: int = 1):
    """Run every workload's operations untraced, then traced; return
    (per-layer metrics, deterministic counters of each traced pass, extras)."""
    audit = Audit(client)
    audit.setup()
    prove = Prove(client, systems)
    conv = Convexity(client, cert=audit.corpus[0])

    # Every pass replays the same seeded candidates, so the untraced and
    # traced passes do the same work and must write the same documents.
    client.rng = random.Random(seed)
    prove.cycle()
    conv.cycle()
    docs = dict(prove.docs)
    untraced = {s: t[0] for s, t in prove.times.items()}
    conv_untraced = conv.times[0]

    tracer = Tracer()
    counters_per_pass = []
    for _ in range(traced_passes):
        client.traced.clear()
        tracer.spans.clear()
        # Audit cycles are short enough to alternate traced and untraced, so
        # machine drift does not enter their overhead.  They run first, while
        # few spans are held: thousands of live spans from the long proofs
        # make each garbage collection, and so the next short call, slower.
        audit_traced, audit_untraced = [], []
        for _ in range(AUDIT_CYCLES):
            with _traced(client, tracer):
                audit_traced.append(audit.cycle())
            audit_untraced.append(audit.cycle())
        client.rng = random.Random(seed)
        with _traced(client, tracer):
            prove.cycle()
            conv.cycle()
        for s in systems:
            client.reproduces(docs[s], prove.docs[s], f"prove {s} under tracing")
        ops = []
        for argv, root, end, counts, last in client.traced:
            op = OpTrace(tracer.spans, root, end, counts)
            check(abs(sum(op.self_time) - op.wall) <= 1e-6 + 1e-6 * op.wall,
                  f"trace of {argv[0]}: layer self times do not add up to its wall time")
            ops.append((argv, op, last))
        metrics, counters = _pass_metrics(ops, prove.docs, conv.first,
                                          len(audit.corpus))
        counters_per_pass.append(counters)
    audit_traced = statistics.fmean(audit_traced)
    audit_untraced = statistics.fmean(audit_untraced)

    traced_prove = {s: t[-1] for s, t in prove.times.items()}
    overhead_s = {"prove": sum(traced_prove.values()) - sum(untraced.values()),
                  "convexity": conv.times[-1] - conv_untraced,
                  "audit": audit_traced - audit_untraced}
    base = {"prove": sum(untraced.values()), "convexity": conv_untraced,
            "audit": audit_untraced}
    for w, extra in overhead_s.items():
        metrics[f"trace.overhead_pct.{w}"] = (extra / base[w] * 100, "%")
    for s, t in untraced.items():
        metrics[f"prove_{s}_s"] = (t, "s")
    metrics["convexity_s"] = (conv_untraced, "s")
    metrics["verify_docs_per_s"] = (len(audit.corpus) / audit_untraced, "1/s")

    last = {argv[2] if argv[0] == "prove" else argv[0]: kept
            for argv, _, kept in ops if argv[0] in ("prove", "convexity")}
    corpus = {kind: p.read_text(encoding="utf-8")
              for kind, p in zip(("existence", "krawczyk", "nozero", "convexity"),
                                 audit.corpus)}
    metrics.update(microbenchmarks(
        systems, prove.docs, corpus,
        conv_cert=last["convexity"]["convexity.verify_convexity"],
        eight_cert=last["eight"]["cli.run_certification"][0], seed=seed))
    extras = {"traced_prove_s": traced_prove, "tracing_overhead_s": overhead_s}
    return metrics, counters_per_pass, extras


def _pass_metrics(ops, docs, conv_doc, corpus_size) -> tuple[dict, dict]:
    metrics: dict = {}
    counters: dict = {}
    prove_ops, conv_ops = [], []
    audit_calls = 0
    for argv, op, _ in ops:
        if argv[0] == "prove":
            m, c = _prove_layers(op, argv[2], docs[argv[2]])
            prove_ops.append(op)
        elif argv[0] == "convexity":
            m, c = _convexity_layers(op, conv_doc)
            conv_ops.append(op)
        else:
            # The first audit cycle: one verify call per corpus document.
            if "corpus-" in argv[2] and audit_calls < corpus_size:
                counters[f"audit.kernel_calls.{audit_calls}"] = sum(op.counts.values())
                audit_calls += 1
            continue
        metrics.update(m)
        counters.update(c)
    metrics["dynamics.self_share.prove"] = (_dynamics_share(prove_ops), "ratio")
    metrics["dynamics.self_share.convexity"] = (_dynamics_share(conv_ops), "ratio")
    return metrics, counters
