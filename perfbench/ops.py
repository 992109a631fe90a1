"""Seeded inputs, the CLI operations the workloads run, and their gate.

Every operation goes through `choreocert.cli.main`, in-process, exactly as a
user's command line would.  The gate checks each one: the exit code, the
expected verdict, and that `verify` AGREES with the document it wrote.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import statistics
import time
import traceback
from pathlib import Path

from choreocert import cli
from choreocert.certificates import parse_document

SYSTEMS = ("eight", "gerver", "chain6")
# The audit corpus's NoZero document starts from the Eight candidate shifted
# by this much in every coordinate; the replay box there holds no zero.
NO_ZERO_SHIFT = 0.01
_WALL_CLOCK = re.compile(r'^\s*"wall_clock_seconds": [^\n]*\n', re.M)


def without_wall_clock(text: str) -> str:
    """A certificate document minus its one nondeterministic field."""
    return _WALL_CLOCK.sub("", text)


def _main(argv: list[str]) -> int:
    """`cli.main`, with argparse's exit on a usage error taken as its code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


class CheckFailed(Exception):
    """An operation gave a wrong exit code, verdict, verify result or document."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Client:
    """One closed-loop client: the next call starts when the previous returns.

    With `tracer` set, each call is recorded as a root span ("cli.main") and
    kept in `traced` with the spans, kernel-call counts and kept return
    values of that call.
    """

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.traced: list[tuple] = []

    def path(self, name: str) -> Path:
        return self.workdir / name

    def candidate(self, system: str, shift: float = 0.0) -> str:
        """The replay candidate, jittered uniformly within +-delta/4."""
        d = cli.DEFAULTS[system]
        q = d["delta"] / 4
        return ",".join(repr(c + shift + self.rng.uniform(-q, q))
                        for c in d["candidate"])

    def call(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        tracer = self.tracer
        if tracer is None:
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = _main(argv)
                seconds = time.perf_counter() - start
            return code, out.getvalue(), seconds
        before = dict(tracer.counts)
        with contextlib.redirect_stdout(out):
            with tracer.span("cli.main") as root:
                code = _main(argv)
        rec = tracer.spans[root]
        counts = {k: v - before[k] for k, v in tracer.counts.items()}
        self.traced.append((argv, root, len(tracer.spans), counts, dict(tracer.last)))
        return code, out.getvalue(), rec[2] - rec[1]

    def op(self, fn, *args, **kwargs):
        """Run one operation and count it; a failed check or a crash is
        recorded as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed as exc:
            self.errors.append(str(exc))
        except Exception:  # noqa: BLE001 - any crash is a failed operation
            self.errors.append(traceback.format_exc())
        self.failed += 1
        return None

    # -- checked operations: each returns its wall seconds (and document) --

    def verify(self, cert: Path) -> float:
        code, out, seconds = self.call(["verify", "--cert", str(cert), "--quiet"])
        check(code == 0 and out.rstrip().endswith("verify: AGREES"),
              f"verify {cert.name}: exit {code}, output {out.strip()!r}")
        return seconds

    def prove(self, system: str, candidate: str, out: Path, *extra: str,
              verdict: str = "UniqueZero") -> tuple[float, str]:
        code, _, seconds = self.call(["prove", "--system", system,
                                      f"--candidate={candidate}", "--out", str(out),
                                      *extra])
        check(code == 0, f"prove {system} {' '.join(extra)}: exit {code}")
        text = out.read_text(encoding="utf-8")
        got = parse_document(text)["verdict"]
        check(got == verdict, f"prove {system}: verdict {got}, expected {verdict}")
        self.verify(out)
        return seconds, text

    def convexity(self, cert: Path, out: Path) -> tuple[float, str]:
        code, _, seconds = self.call(["convexity", "--cert", str(cert),
                                      "--out", str(out)])
        check(code == 0, f"convexity: exit {code}")
        text = out.read_text(encoding="utf-8")
        check(parse_document(text)["passed"] is True, "convexity: not passed")
        self.verify(out)
        return seconds, text

    def reproduces(self, first: str, again: str, what: str) -> None:
        check(without_wall_clock(first) == without_wall_clock(again),
              f"{what}: the seed re-run did not reproduce the document")


# -- workloads: setup(), cycle() -> seconds or None, reproduce(), details() --

class Prove:
    """`prove` over the replays in turn, each from a fresh jittered candidate."""

    def __init__(self, client: Client, systems=SYSTEMS):
        self.client = client
        self.systems = systems
        self.times: dict[str, list[float]] = {s: [] for s in systems}
        self.docs: dict[str, str] = {}
        self.first: tuple[str, str] | None = None

    def setup(self) -> None:
        pass

    def cycle(self) -> float | None:
        c = self.client
        total, ok = 0.0, True
        for system in self.systems:
            candidate = c.candidate(system)
            done = c.op(c.prove, system, candidate, c.path(f"{system}.cert"))
            if done is None:
                ok = False
                continue
            seconds, text = done
            self.times[system].append(seconds)
            self.docs[system] = text
            total += seconds
            if self.first is None:
                self.first = (system, candidate, text)
        return total if ok else None

    def reproduce(self) -> None:
        check(self.first is not None, "prove: no document to re-run")
        system, candidate, text = self.first
        _, again = self.client.prove(system, candidate,
                                     self.client.path("again.cert"))
        self.client.reproduces(text, again, f"prove {system}")

    def details(self) -> dict:
        return {f"prove_{s}_s": statistics.median(t)
                for s, t in self.times.items() if t}


class Convexity:
    """`convexity --cert` on one Eight certificate proved at set-up."""

    def __init__(self, client: Client, cert: Path | None = None):
        self.client = client
        self.cert = cert
        self.times: list[float] = []
        self.first: str | None = None

    def setup(self) -> None:
        if self.cert is None:
            self.cert = self.client.path("eight.cert")
            self.client.prove("eight", self.client.candidate("eight"), self.cert)

    def cycle(self) -> float | None:
        c = self.client
        done = c.op(c.convexity, self.cert, c.path("convexity.cert"))
        if done is None:
            return None
        seconds, text = done
        self.times.append(seconds)
        if self.first is None:
            self.first = text
        return seconds

    def reproduce(self) -> None:
        check(self.first is not None, "convexity: no document to re-run")
        _, again = self.client.convexity(self.cert, self.client.path("again.cert"))
        self.client.reproduces(self.first, again, "convexity")

    def details(self) -> dict:
        return {"convexity_s": statistics.median(self.times)} if self.times else {}


class Audit:
    """`verify --cert` over a seeded corpus: Newton and Krawczyk UniqueZero,
    NoZero, and convexity documents of the Eight.  Never integrates."""

    def __init__(self, client: Client):
        self.client = client
        self.corpus: list[Path] = []
        self.cycles: list[float] = []
        self.newton: tuple[str, str] | None = None

    def setup(self) -> None:
        c = self.client
        newton = c.path("corpus-newton.cert")
        candidate = c.candidate("eight")
        _, text = c.prove("eight", candidate, newton)
        self.newton = (candidate, text)
        krawczyk = c.path("corpus-krawczyk.cert")
        c.prove("eight", c.candidate("eight"), krawczyk, "--method", "krawczyk")
        nozero = c.path("corpus-nozero.cert")
        c.prove("eight", c.candidate("eight", NO_ZERO_SHIFT), nozero,
                "--expect-no-zero", verdict="NoZero")
        convexity = c.path("corpus-convexity.cert")
        c.convexity(newton, convexity)
        self.corpus = [newton, krawczyk, nozero, convexity]

    def cycle(self) -> float | None:
        c = self.client
        total, ok = 0.0, True
        for cert in self.corpus:
            seconds = c.op(c.verify, cert)
            if seconds is None:
                ok = False
            else:
                total += seconds
        if ok:
            self.cycles.append(total)
            return total
        return None

    def reproduce(self) -> None:
        check(self.newton is not None, "audit: no corpus to re-run")
        candidate, text = self.newton
        _, again = self.client.prove("eight", candidate,
                                     self.client.path("again.cert"))
        self.client.reproduces(text, again, "audit corpus eight")

    def details(self) -> dict:
        if not self.cycles:
            return {}
        return {"verify_docs_per_s": len(self.corpus) / statistics.fmean(self.cycles)}


WORKLOADS = {"prove": Prove, "convexity": Convexity, "audit": Audit}


def measure(workload, seconds: float) -> list[float]:
    """Closed loop: start cycles until `seconds` have passed, at least one."""
    cycles = []
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start < seconds:
        n += 1
        took = workload.cycle()
        if took is not None:
            cycles.append(took)
    return cycles
