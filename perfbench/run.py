"""Benchmark of the choreocert prover.

    python3 perfbench/run.py --workload {prove,convexity,audit} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the workload runs closed-loop for S seconds and the
end-to-end metrics are printed; with --trace 1 the traced run of every
workload's operations gives the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is a JSON report with the environment and details.  The
exit code is 0 only when every output check passed.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SEED_INVARIANT = (".steps_point", ".steps_set", ".series", ".iterations",
                  ".steps", ".checks")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _load_program():
    """Import the package from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import choreocert
    if not Path(choreocert.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"choreocert imported from {choreocert.__file__}, "
                          f"not from {SRC}")


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _cgroup_cpu_limit() -> str | None:
    for path in ("/sys/fs/cgroup/cpu.max",
                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            text = Path(path).read_text().strip()
        except OSError:
            continue
        if path.endswith("quota_us"):
            try:
                period = Path(path).with_name("cpu.cfs_period_us").read_text().strip()
            except OSError:
                period = "?"
            text = f"{text} {period}"
        return text
    return None


def environment() -> dict:
    import numpy
    import scipy
    from choreocert.interval import rounding_backend
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "cgroup_cpu_limit": _cgroup_cpu_limit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "rounding_backend": rounding_backend(),
        "machine": platform.machine(),
    }


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import choreocert.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import choreocert.cli"],
                       cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def spread(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v)}
    if len(v) >= 2:
        q1, _, q3 = statistics.quantiles(v, n=4)
        out.update(q1=q1, q3=q3)
    if len(v) > 10:
        out[f"p{100 * (len(v) - 10) / len(v):.1f}"] = v[len(v) - 11]
    return out


def end_to_end(client, workload_name: str, seconds: float):
    from perfbench import ops
    setup = measure_setup()
    workload = ops.WORKLOADS[workload_name](client)
    workload.setup()
    cycles = ops.measure(workload, seconds)
    client.op(workload.reproduce)
    ops.check(bool(cycles), f"{workload_name}: no cycle completed")
    metrics = {
        "cycle_s": (statistics.fmean(cycles), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {"cycle_s": spread(cycles), "setup_s": spread(setup),
               **workload.details()}
    return metrics, details


def trace_run(client, seed: int):
    from perfbench import layers, ops
    metrics, (counters,), extras = layers.probe(client, ops.SYSTEMS, seed)
    # Counters of the same code must repeat exactly from run to run: all of
    # them for the same seed, and the step, series, iteration and check
    # counts for any seed (a jittered candidate may need one more
    # rough-enclosure try, which moves eval and kernel counts).  The first
    # traced run of a source tree and seed in this checkout records them.
    path = WORK / "counters.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    runs = known.setdefault(_src_sha256(), {})
    for other_seed, other in runs.items():
        keys = set(other) | set(counters)
        if other_seed != str(seed):
            keys = {k for k in keys if k.endswith(SEED_INVARIANT)}
        diff = sorted(k for k in keys if other.get(k) != counters.get(k))
        ops.check(not diff, f"deterministic counters differ from the run with "
                            f"seed {other_seed}: {diff}")
    runs[str(seed)] = counters
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    metrics["failed_ratio"] = (client.failed / max(client.attempted, 1), "ratio")
    return metrics, {"counters": counters, **extras}


def smoke(client, seed: int) -> dict:
    """Eight-only self-test of the whole benchmark: two traced passes whose
    counters must agree, and every gate of the traced run."""
    from perfbench import layers, ops
    metrics, counters, extras = layers.probe(client, ("eight",), seed, traced_passes=2)
    ops.check(counters[0] == counters[1],
              f"deterministic counters differ between passes: {counters}")
    return {"metrics": {k: v for k, (v, _) in sorted(metrics.items())},
            "counters": counters[0], **extras}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("prove", "convexity", "audit"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="Eight-only self-test of the benchmark")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    try:
        _load_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot load the program or BENCHMARK.json: {exc}",
              file=sys.stderr)
        return 2
    from perfbench import ops

    WORK.mkdir(exist_ok=True)
    env = environment()
    metrics, details, problems = {}, {}, []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        client = ops.Client(Path(tmp), args.seed)
        try:
            if args.smoke:
                details = smoke(client, args.seed)
            elif args.trace:
                metrics, details = trace_run(client, args.seed)
            else:
                metrics, details = end_to_end(client, args.workload, args.seconds)
        except ops.CheckFailed as exc:
            problems.append(str(exc))
        except Exception:  # noqa: BLE001 - report any crash as a failed run
            problems.append(traceback.format_exc())

    if not args.smoke and not problems:
        section = spec["per_layer" if args.trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in section}
        got = {k: unit for k, (_, unit) in metrics.items()}
        if want != got:
            problems.append(f"metrics differ from BENCHMARK.json: "
                            f"{sorted(set(want.items()) ^ set(got.items()))}")
    errors = client.errors + problems
    attempted = max(client.attempted, 1)
    failed = client.failed + (1 if problems else 0)
    correct = not errors
    report = {"workload": "smoke" if args.smoke else args.workload,
              "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "details": details,
              "failed_ratio": failed / attempted, "errors": errors}
    name = "smoke" if args.smoke else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{name}.json").write_text(json.dumps(report, indent=1, default=str))
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
