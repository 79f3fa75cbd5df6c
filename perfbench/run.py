"""Layered benchmark of cstriple: end-to-end numbers, per-layer numbers from a
separate traced run, and a correctness gate on every request.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the ``src/`` tree next to
this directory.  Each workload is a closed loop with one client: request
``j`` uses seed ``seed + j`` and starts only when request ``j - 1`` is done.

``--trace 0`` measures set-up (median of fresh-interpreter imports), then
runs requests for ``--seconds`` (and at least MIN_TIMED timed requests after
WARMUP untimed ones) and reports the end-to-end metrics of BENCHMARK.json.
Their times are CPU time scaled to a reference host speed (hostspeed.py);
the run fails if the median wall/CPU ratio of its requests leaves 1 by more
than the bound of req_ms_p50, since CPU time then no longer stands for the
latency.  ``--workload all`` runs each workload in a child run.py of its
own, one after the other.
``--trace 1`` runs a fixed number of requests untraced and then the same
requests traced, and reports the per-layer metrics; tracing overhead is the
ratio of the two phases.

Every request passes through its workload's gate (workloads.py); a failed
request counts in ``failed``.  The payload digests of the first
DIGEST_REQUESTS requests are folded into one digest per workload; for the
seed recorded in digests.json it must equal the stored value, for any other
seed it is printed so two commits can be compared.  The last line of
standard output is the JSON result; the exit code is 0 only when every
request passed, every digest matched and wall/CPU stayed near 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WARMUP = 2
# At least ten timed requests must lie beyond p90.
MIN_TIMED = 110
SETUP_IMPORTS = 9
DIGEST_REQUESTS = 16


def load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Gate results and payload digests of one workload's requests."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.digests: list[list[str]] = []  # one list per pass over the requests
        self.wall_per_cpu: float | None = None  # median over the timed requests

    def add(self, outcomes: list[workloads.Outcome]) -> None:
        self.attempted += len(outcomes)
        for j, outcome in enumerate(outcomes):
            if outcome.failure:
                self.failed += 1
                if self.failed <= 3:
                    print(f"FAILED {self.name} request {j}: {outcome.failure}", file=sys.stderr)
        self.digests.append([o.digest for o in outcomes[:DIGEST_REQUESTS]])

    def check_digest(self, seed: int, stored: dict) -> bool:
        folded = {workloads.fold_digests(d) for d in self.digests}
        if len(folded) != 1:
            print(f"DIGEST MISMATCH {self.name}: passes over the same requests disagree", file=sys.stderr)
            return False
        digest = folded.pop()
        expected = stored["digests"].get(self.name) if seed == stored["seed"] else None
        if expected is None:
            print(f"{self.name} digest {digest} (seed {seed}, first {DIGEST_REQUESTS} requests)")
            return True
        if digest != expected:
            print(
                f"DIGEST MISMATCH {self.name} at seed {seed}: {digest}, stored {expected}",
                file=sys.stderr,
            )
            return False
        print(f"{self.name} digest {digest} matches the stored digest for seed {seed}")
        return True

    def check_wall(self, bound: float) -> bool:
        """The CPU-time latency stands for wall time only while the median
        wall/CPU ratio (hostspeed.wall_per_cpu) stays within ``bound`` of 1."""
        if self.wall_per_cpu is None or abs(self.wall_per_cpu - 1) <= bound:
            return True
        print(
            f"WALL/CPU {self.name}: median {self.wall_per_cpu:.3f}, more than {bound} from 1: the "
            f"requests ran on several CPUs (below 1) or blocked (above 1), so their CPU time is no "
            f"longer the latency a user sees",
            file=sys.stderr,
        )
        return False


def run_requests(ctx, name: str, seed: int, count: int, tracer=None) -> list:
    """Requests 0..count-1."""
    outcomes = []
    for j in range(count):
        outcomes.append(ctx.request(name, seed + j, tracer))
        if tracer:
            tracer.end_request()
            for case, n in (outcomes[-1].case_counts or {}).items():
                tracer.count(f"explorer.case.{case}", n)
    return outcomes


def run_for(ctx, name: str, seed: int, seconds: float) -> list:
    """WARMUP untimed requests, then requests until ``seconds`` have passed
    and at least MIN_TIMED were timed."""
    outcomes = [ctx.request(name, seed + j) for j in range(WARMUP)]
    start = perf_counter()
    while perf_counter() - start < seconds or len(outcomes) < WARMUP + MIN_TIMED:
        outcomes.append(ctx.request(name, seed + len(outcomes)))
    return outcomes


def end_to_end(ctx, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    ctx.run_child("import")  # fills the bytecode cache
    setup = [ctx.run_child("import") for _ in range(SETUP_IMPORTS)]
    outcomes = run_for(ctx, name, seed, seconds)
    tally.add(outcomes)
    timed = [o for o in outcomes[WARMUP:] if o.seconds is not None]
    if len(timed) < 2:
        return {}
    latencies = [o.seconds * 1e3 for o in timed]
    p90 = statistics.quantiles(latencies, n=10)[8]
    if name == "verify-cold":
        rss_kb = statistics.median(o.rss_kb for o in timed)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_ms = statistics.median(o.probe for o in timed) * 1e3
    tally.wall_per_cpu = statistics.median(o.wall_per_cpu for o in timed)
    print(
        f"{name}: {len(timed)} timed requests after {WARMUP} warm-up, {ctx.units[name]} "
        f"{workloads.WORKLOADS[name][0]} per request, {sum(x > p90 for x in latencies)} beyond "
        f"p90; setup is the median of {SETUP_IMPORTS} imports in fresh interpreters; "
        f"host probe {probe_ms:.3f} ms, times are scaled to a "
        f"{hostspeed.REFERENCE_S * 1e3:g} ms probe; median wall/CPU "
        f"{tally.wall_per_cpu:.4f} (wall time less the wait for a CPU)"
    )
    return {
        "setup_s": statistics.median(r["seconds"] for r in setup),
        "req_ms_p50": statistics.median(latencies),
        "req_ms_p90": p90,
        "units_per_s": len(timed) * ctx.units[name] / sum(o.total for o in timed),
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(ctx, name: str, seed: int, tally: Tally, count: int) -> dict:
    unit = workloads.WORKLOADS[name][0]
    plain = run_requests(ctx, name, seed, count)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        traced = run_requests(ctx, name, seed, count, tracer)
    finally:
        tracer.uninstall()
    tally.add(plain)
    tally.add(traced)
    units = count * ctx.units[name]
    metrics = tracer.metrics(
        requests=count,
        samples=units if unit == "sample" else 0,
        states=units if unit == "state" else 0,
    )
    # Same requests in both phases, so the throughput ratio is the cost ratio.
    cost = [sum(o.total or 0.0 for o in outcomes[WARMUP:]) for outcomes in (plain, traced)]
    metrics["trace.overhead_frac"] = cost[1] / cost[0] - 1
    absent = sorted(m for m, v in metrics.items() if v is None)
    if absent:
        print(f"{name}: absent (hook target gone): {', '.join(absent)}")
    print(f"{name}: {count} requests untraced, then the same {count} traced")
    return {m: v for m, v in metrics.items() if v is not None}


def run_all(args, names: list[str]) -> int:
    """Every workload in a run.py child of its own, one after the other, so
    that peak_rss_mb (ru_maxrss, the high-water mark over a process's whole
    life) is each workload's own.  Metrics are prefixed with the workload."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        metrics.update({f"{name}.{metric}": value for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cstriple" / "__init__.py").is_file():
        print(f"error: no cstriple sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    name = args.workload
    stored = load_json(HERE / "digests.json")
    specs = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    load_start = os.getloadavg()
    tally = Tally(name)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            ctx = workloads.Context(ROOT, Path(tmp))
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            values = per_layer(ctx, name, args.seed, tally, workloads.WORKLOADS[name][1])
        else:
            values = end_to_end(ctx, name, args.seed, args.seconds, tally)

    env = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "seed": args.seed,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("env " + json.dumps(env))
    digest_ok = tally.check_digest(args.seed, stored)
    wall_ok = bool(args.trace) or tally.check_wall(specs["req_ms_p50"]["bound"])
    print(f"{name} failed_frac = {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} requests)")
    metrics = {}
    for metric, value in values.items():
        unit = specs[metric]["unit"]
        print(f"{name} {metric} = {value:.6g} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    correct = tally.failed == 0 and digest_ok and wall_ok and bool(values)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
