"""The four benchmark workloads: one request each, its correctness gate and
the digest of its payload.

Every request is a closed loop of one: the runner starts request ``j`` (which
uses seed ``seed + j``) only after request ``j - 1`` has returned.  A request
returns an ``Outcome``; ``failure`` is None exactly when the output passed
the workload's gate.  ``digest`` is the SHA-256 of the request's payload
(the manifest, or ``FuzzSummary.to_dict()``) with every ``elapsed_ms`` and
``timing`` key removed, so run-to-run timing fields never change it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import hostspeed

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"

# Samples per search request and states per fuzz request.  Users run 100 000
# samples and 10 000 states; a request here is smaller so that a run holds
# well over a hundred of them, and large enough that its fixed set-up
# (argparse, resolve_target, compile_evaluator, manifest write) is a small
# share.  Fitting request CPU time against size (100, 1000 and 3000 samples;
# 10, 100 and 300 states; Python 3.11, 2-CPU VM) gave a fixed part of about
# 2.8 ms for d-tilde and 3.8 ms for d-k, 1.9% and 2.3% of a 3000-sample
# request (5.5% and 6.9% at 1000 samples, under 0.1% at 100 000), and about
# 0.2 ms, 0.3% of a 100-state fuzz request.
SEARCH_SAMPLES = 3000
FUZZ_STATES = 100

# Keys whose values are run-to-run timings, stripped before hashing.
TIMING_KEYS = ("elapsed_ms", "timing")

# The checks that verify --all has to report as verified.
CHECK_NAMES = (
    "lagrange",
    "key-identity",
    "constraint-factorization",
    "k-equivalence",
    "case-formulas",
    "sharpness-reduction",
    "weak-implication",
)


def cpu_time() -> float:
    """CPU seconds of this process plus its reaped child processes.

    Requests are timed in CPU time, not wall time: on a shared host the
    benchmark's CPU is taken away for milliseconds at a time, which wall time
    would count as work.  That stands for what a user waits only while the
    code under test is single-threaded and never blocks, which
    ``hostspeed.wall_per_cpu`` checks on every request.  Reaped children
    count, so work moved into subprocesses is still measured.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


@dataclass
class Outcome:
    """One request.  Times are CPU seconds at the reference host speed."""

    seconds: float | None  # latency; None if the request raised
    failure: str | None
    digest: str
    probe: float = 0.0  # mean host-speed probe around the request, raw seconds
    wall_per_cpu: float = 1.0  # of the timed region, see hostspeed.py
    total: float | None = None  # verify-cold: also the interpreter start and import
    rss_kb: int | None = None
    case_counts: dict | None = None

    def __post_init__(self):
        if self.total is None:
            self.total = self.seconds


def timed(call):
    """Run ``call()`` between two host-speed probes; returns its scaled CPU
    time, its result, the mean probe time and its ``wall_per_cpu``."""
    before = hostspeed.probe()
    waited, wall = hostspeed.run_delay(), perf_counter()
    start = cpu_time()
    result = call()
    seconds = cpu_time() - start
    wall, waited = perf_counter() - wall, hostspeed.run_delay() - waited
    after = hostspeed.probe()
    ratio = hostspeed.wall_per_cpu(wall, waited, seconds)
    return hostspeed.scale(seconds, before, after), result, (before + after) / 2, ratio


# workload -> (what one unit of units_per_s is, requests in each phase of a
# traced run).  A traced run has a fixed request count so that its exact
# counters repeat from run to run.
WORKLOADS = {
    "verify-cold": ("verify", 20),
    "search-dtilde": ("sample", 40),
    "search-dk-hits": ("sample", 40),
    "fuzz": ("state", 40),
}


def strip_timing(value):
    if isinstance(value, dict):
        return {k: strip_timing(v) for k, v in value.items() if k not in TIMING_KEYS}
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


def payload_digest(payload) -> str:
    text = json.dumps(strip_timing(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fold_digests(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# -- independent reference values ----------------------------------------------
# The formulas below are written out from the statement of the inequality, not
# taken from cstriple, so a wrong evaluator or a wrong corpus polynomial is
# caught at the argmin and at the first hits of every search request.


def d_tilde_reference(v: dict[str, Fraction]) -> Fraction:
    a1, a2, a3, b1, b2, b3 = (v[n] for n in ("a1", "a2", "a3", "b1", "b2", "b3"))
    lhs = (a1 * a1 + b2 * b2 + b3 * b3) * (a2 * a2 + b3 * b3 + b1 * b1) * (a3 * a3 + b1 * b1 + b2 * b2)
    dot = a1 * b1 + a2 * b2 + a3 * b3
    bnorm = b1 * b1 + b2 * b2 + b3 * b3
    bracket = (
        b1 * b1 * (a2 * b3 - a3 * b2) ** 2
        + b2 * b2 * (a3 * b1 - a1 * b3) ** 2
        + b3 * b3 * (a1 * b2 - a2 * b1) ** 2
    )
    return lhs - dot * dot * bnorm - bracket / 2


def d_k_reference(v: dict[str, Fraction], c: Fraction) -> Fraction:
    k1, k2, k3, b1, b2, b3 = (v[n] for n in ("k1", "k2", "k3", "b1", "b2", "b3"))
    s1, s2, s3 = b1 * b1, b2 * b2, b3 * b3
    lhs = (k1 * k1 * s1 + s2 + s3) * (k2 * k2 * s2 + s3 + s1) * (k3 * k3 * s3 + s1 + s2)
    dot = k1 * s1 + k2 * s2 + k3 * s3
    spread = (k1 - k2) ** 2 + (k2 - k3) ** 2 + (k1 - k3) ** 2
    return lhs - dot * dot * (s1 + s2 + s3) - c * s1 * s2 * s3 * spread


DK_C = Fraction(5)
# Hits re-evaluated against the reference in each search request.
CHECKED_HITS = 3


# -- gates ------------------------------------------------------------------------


def _point(raw: dict[str, str]) -> dict[str, Fraction]:
    return {name: Fraction(value) for name, value in raw.items()}


def check_verify(manifest: dict, code: int) -> str | None:
    reports = manifest.get("reports", [])
    missing = set(CHECK_NAMES) - {r.get("check") for r in reports}
    if missing:
        return f"checks missing from the manifest: {sorted(missing)}"
    bad = [r["check"] for r in reports if r.get("status") != "verified" or r.get("term_count") != 0]
    if bad:
        return f"checks not verified: {bad}"
    if code != 0 or manifest.get("overall_status") != "pass":
        return f"exit code {code}, overall status {manifest.get('overall_status')!r}"
    return None


def check_search(
    manifest: dict, code: int, samples: int, seed: int, reference, expect_hits: bool
) -> str | None:
    report = manifest["reports"][0]
    hits = report["counterexamples"]
    if report["samples_run"] != samples or report["seed"] != seed:
        return f"ran {report['samples_run']} samples with seed {report['seed']}"
    if report["counterexample_count"] != len(hits):
        return "counterexample_count disagrees with the hit list"
    if [p["value"] for p in report["probes"]] != ["0"]:
        return f"all-ones probe is {report['probes']}, expected value 0"
    if bool(hits) != expect_hits:
        return f"{len(hits)} counterexamples, expected {'some' if expect_hits else 'none'}"
    if (code, manifest["overall_status"]) != ((1, "fail") if hits else (0, "pass")):
        return f"exit code {code} with status {manifest['overall_status']!r} and {len(hits)} hits"
    min_value = Fraction(report["min_value"])
    if reference(_point(report["argmin"])) != min_value:
        return "min_value is not the target's value at argmin"
    if hits and min(Fraction(h["value"]) for h in hits) != min_value:
        return "min_value is not the smallest counterexample value"
    if not hits and min_value < 0:
        return "negative minimum without a counterexample"
    for hit in hits[:CHECKED_HITS]:
        value = Fraction(hit["value"])
        if value >= 0 or reference(_point(hit["point"])) != value:
            return f"counterexample {hit} is wrong"
    return None


def check_fuzz(summary: dict, states: int) -> str | None:
    if summary["samples_run"] != states or summary["passed"] != states:
        return f"{summary['passed']} of {summary['samples_run']} states passed"
    if summary["failed"] or any(summary["failures"].values()):
        return f"failures {summary['failures']}"
    if sum(summary["case_counts"].values()) != states:
        return f"case counts {summary['case_counts']} do not add up"
    return None


# -- requests ---------------------------------------------------------------------


class Context:
    """The checkout being measured: its ``src`` tree, cstriple imported from
    there, and a scratch directory for manifests.  ``samples`` and ``states``
    are the request sizes; the self-tests shrink them."""

    def __init__(self, root: Path, tmp: Path, samples: int = SEARCH_SAMPLES, states: int = FUZZ_STATES):
        self.root = root
        self.src = root / "src"
        self.tmp = tmp
        self.units = {"verify-cold": 1, "search-dtilde": samples, "search-dk-hits": samples, "fuzz": states}
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        import cstriple
        from cstriple import cli, explorer

        if self.src.resolve() not in Path(cstriple.__file__).resolve().parents:
            raise ImportError(f"cstriple was imported from {cstriple.__file__}, not {self.src}")
        self.cli = cli
        self.explorer = explorer

    def run_child(self, *args: str) -> dict:
        """Run child.py in a fresh interpreter and return its JSON reply."""
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(self.src), *args],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=self.root,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])

    def _cli(self, argv: list[str]) -> tuple[float, int, dict, float, float]:
        out = self.tmp / "manifest.json"
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            seconds, code, probe, ratio = timed(lambda: self.cli.main([*argv, "--json", str(out)]))
        return seconds, code, json.loads(out.read_text()), probe, ratio

    def verify_cold(self, seed: int, tracer) -> Outcome:
        out = self.tmp / "verify.json"
        out.unlink(missing_ok=True)
        start = cpu_time()
        reply = self.run_child("verify", str(out), "1" if tracer else "0")
        total = cpu_time() - start
        if tracer:
            tracer.merge(reply["trace"])
        manifest = json.loads(out.read_text())
        # The child's two host-speed probes are benchmark work, not cstriple's.
        total -= 2 * reply["probe"]
        return Outcome(
            reply["seconds"],
            check_verify(manifest, reply["exit"]),
            payload_digest(manifest),
            probe=reply["probe"],
            wall_per_cpu=reply["wall_per_cpu"],
            total=hostspeed.scale(total, reply["probe"], reply["probe"]),
            rss_kb=reply["rss_kb"],
        )

    def search_dtilde(self, seed: int, tracer) -> Outcome:
        samples = self.units["search-dtilde"]
        argv = ["search", "--target", "d-tilde", "--samples", str(samples), "--seed", str(seed)]
        seconds, code, manifest, probe, ratio = self._cli(argv)
        failure = check_search(manifest, code, samples, seed, d_tilde_reference, expect_hits=False)
        return Outcome(seconds, failure, payload_digest(manifest), probe, ratio)

    def search_dk_hits(self, seed: int, tracer) -> Outcome:
        samples = self.units["search-dk-hits"]
        argv = ["search", "--target", "d-k", "--c", str(DK_C), "--samples", str(samples), "--seed", str(seed)]
        seconds, code, manifest, probe, ratio = self._cli(argv)
        reference = lambda v: d_k_reference(v, DK_C)  # noqa: E731
        failure = check_search(manifest, code, samples, seed, reference, expect_hits=True)
        return Outcome(seconds, failure, payload_digest(manifest), probe, ratio)

    def fuzz(self, seed: int, tracer) -> Outcome:
        states = self.units["fuzz"]
        cfg = self.explorer.SearchConfig(states, seed)
        seconds, summary, probe, ratio = timed(
            lambda: self.explorer.minimize_fuzz(cfg, require_negative_product=True)
        )
        payload = summary.to_dict()
        failure = check_fuzz(payload, states)
        return Outcome(
            seconds, failure, payload_digest(payload), probe, ratio, case_counts=payload["case_counts"]
        )

    def request(self, workload: str, seed: int, tracer=None) -> Outcome:
        """Run one request; an exception from the program counts as a failure."""
        handler = getattr(self, workload.replace("-", "_"))
        try:
            return handler(seed, tracer)
        except Exception:  # the run goes on and reports the failure
            return Outcome(None, traceback.format_exc(), "")
