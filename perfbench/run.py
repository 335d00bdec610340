#!/usr/bin/env python3
"""Benchmark of the mdpwf library: closed-loop requests from one client on
four workloads, every output checked against recorded references.

    python3 perfbench/run.py --workload scaling --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root; the library is imported from ``src/``.  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--workload all``
runs each workload in its own process, so that peak memory is per workload.
See NOTES.md for why each workload exists and what each layer metric
should move.
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
import time
from importlib import metadata
from pathlib import Path

from tracing import PER_LAYER, Tracer, absent_metrics, layer_metrics, span_times
from workloads import WORKLOADS, build_requests, load_references

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# One BLAS thread: on a 2-core box a two-thread 500x500 solve alternates
# between about 5 ms and 170 ms from run to run, which would swamp any change.
BLAS_THREADS = "1"
SETUP_REPEATS = 3
# Stop after the round that passes this multiple of --seconds, so a much
# slower commit still ends in time (it then runs fewer rounds).
TIME_CAP_FACTOR = 1.5
CHILD_TIMEOUT_S = 180

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The program or its references cannot be loaded; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args, rounds, per_round):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rounds": rounds,
        "requests_per_round": per_round,
        "requests": rounds * per_round,
    }


def import_library():
    """Import mdpwf from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mdpwf
    except ImportError as e:
        raise SetupError(f"cannot import mdpwf from {src}: {e}") from None
    if Path(mdpwf.__file__).resolve().parent != (src / "mdpwf").resolve():
        raise SetupError(f"mdpwf imported from {mdpwf.__file__}, not from {src}")
    return mdpwf


def warm_up(m):
    """One discarded pass through the dense, sparse and exact paths, so lazy
    imports (scipy.sparse) and first-call costs land in set-up."""
    g = m.generators
    m.welfare.optimize(g.random_mdp(g.RandomMdpConfig(num_states=20, seed=0)))
    n = getattr(m.linalg, "_DENSE_LIMIT", 600) + 1
    big = g.random_mdp(g.RandomMdpConfig(num_states=n, seed=0))
    m.evaluate.eval_positional(big, [0] * n)
    m.welfare.optimize(g.builtin("investment"), mode=m.EXACT)


def references(name):
    try:
        return load_references(name)
    except (OSError, ValueError) as e:
        raise SetupError(f"cannot read references for {name}: {e}") from None


def cold_setup(name, seed):
    """Set-up as a fresh process pays it: import, warm-up, inputs.  Runs in
    a child process; prints its seconds."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    refs = references(name)
    t0 = time.perf_counter()
    m = import_library()
    warm_up(m)
    build_requests(m, name, seed, refs)
    print(time.perf_counter() - t0)


def cold_setup_seconds(args):
    """setup_s samples: lazy imports and first-call costs happen once per
    process, so each sample is a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; " + (
        f"run.cold_setup({args.workload!r}, {args.seed})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def request_medians(rounds_lat):
    """Each request's median latency over the rounds.  The host's CPU speed
    swings by up to 1.7x in phases of a second or less, and preemptions add
    milliseconds to single requests; the median drops both."""
    return [statistics.median(col) for col in zip(*rounds_lat)]


def tail_latency(medians):
    """Tail across the workload's inputs: the highest percentile of the
    per-request medians with at least ten beyond it, or their maximum when a
    round holds 20 requests or fewer (ten beyond would put it at or below
    the median).  Over raw samples that percentile is p99.98 on sweep, set
    by host preemptions, and it moved by half between runs.  Returns
    (value, percentile, requests per round)."""
    n = len(medians)
    k = 11 if n > 20 else 1  # k-th largest
    return sorted(medians)[-k], 100.0 * (n - k + 1) / n, n


def run_round(m, requests, refs, tracer, first_id):
    """Send every request once, each after the previous returned.  Checks
    run after the clock stops.  Returns (latencies, failures)."""
    latencies = []
    failed = 0
    for i, req in enumerate(requests):
        close = tracer.request_span(first_id + i) if tracer else None
        t0 = time.perf_counter()
        try:
            out = req.call()
        except m.MdpwfError:
            out = None
        t1 = time.perf_counter()
        if close:
            close()
        latencies.append(t1 - t0)
        if out is None or not req.check(req.summarize(out), refs[req.key]):
            failed += 1
    return latencies, failed


def run_workload(args):
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    wl = WORKLOADS[args.workload]
    m = import_library()
    refs = references(wl.name)

    warm_up(m)
    tracer = Tracer(m, m.MdpwfError) if args.trace else None
    build_s = []
    for _ in range(SETUP_REPEATS if tracer else 1):
        if tracer:
            tracer.reset()
            tracer.install()
        requests = build_requests(m, wl.name, args.seed, refs)
        if tracer:
            tracer.uninstall()
            build_s.append(span_times(tracer.spans)[0]["generators.build"])
    missing = [r.key for r in requests if r.key not in refs]
    if missing:
        raise SetupError(f"no reference recorded for {missing[:3]} ...")
    cold_s = [] if tracer else [cold_setup_seconds(args) for _ in range(SETUP_REPEATS)]

    rounds = max(1, round(args.seconds / wl.round_seconds))
    traced_rounds = max(1, rounds // 2) if tracer else 0
    plain_rounds = max(1, rounds - traced_rounds)
    per_round = len(requests)

    plain_rounds_lat, traced_rounds_lat, layer_rounds = [], [], []
    failed = attempted = 0
    started = time.perf_counter()
    cap = TIME_CAP_FACTOR * args.seconds
    for r in range(plain_rounds + traced_rounds):
        traced = r >= plain_rounds
        if traced:
            tracer.reset()
            tracer.install()
        lat, bad = run_round(m, requests, refs, tracer if traced else None, r * per_round)
        if traced:
            tracer.uninstall()
            layer_rounds.append(layer_metrics(tracer.spans, tracer.counts))
            traced_rounds_lat.append(lat)
        else:
            plain_rounds_lat.append(lat)
        failed += bad
        attempted += len(lat)
        if time.perf_counter() - started > cap and (not tracer or traced):
            print(f"note: stopped after round {r + 1}, past {cap:.0f} s", flush=True)
            break
    meta = run_metadata(args, len(plain_rounds_lat) + len(traced_rounds_lat), per_round)

    print(
        f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
        f"{meta['rounds']} rounds x {per_round} requests"
    )
    if tracer:
        metrics = traced_metrics(tracer, layer_rounds, build_s, plain_rounds_lat, traced_rounds_lat)
    else:
        metrics = end_to_end_metrics(plain_rounds_lat, statistics.median(cold_s))
        print("  set-up in fresh processes: " + ", ".join(f"{x:.4g} s" for x in cold_s))
    print(f"  error_rate {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    print("meta " + json.dumps(meta))
    if tracer:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{wl.name}.jsonl"
        tracer.dump(path, meta)
        print(f"  spans of the last traced round: {path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def end_to_end_metrics(rounds_lat, setup_s):
    latencies = [x for lat in rounds_lat for x in lat]
    medians = request_medians(rounds_lat)
    tail, pct, n = tail_latency(medians)
    values = {
        # a round's requests over a typical round: the per-request medians
        "throughput_rps": n / sum(medians),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    for name, value in values.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{pct:.4g} of {n} per-request medians over {len(rounds_lat)} rounds)"
        elif name == "latency_p50_ms":
            note = f"  ({len(latencies)} samples)"
        print(f"  {name:<16} {value:.6g} {END_TO_END[name]}{note}")
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def traced_metrics(tracer, layer_rounds, build_s, plain_rounds_lat, traced_rounds_lat):
    """Median over traced rounds of each per-layer value."""
    absent = set(absent_metrics(tracer.installed))
    values = {}
    for name in PER_LAYER:
        if name in absent or name in ("generators.build_s", "trace.overhead_ratio"):
            continue
        per_round = [vals[name] for vals, _ in layer_rounds]
        if PER_LAYER[name][0] == "count" and len(set(per_round)) > 1:
            print(f"  note: {name} differs between rounds: {per_round}")
        values[name] = statistics.median(per_round)
    if "generators.build_s" not in absent:
        values["generators.build_s"] = statistics.median(build_s)
    values["trace.overhead_ratio"] = sum(request_medians(traced_rounds_lat)) / sum(
        request_medians(plain_rounds_lat)
    )
    for name in PER_LAYER:
        if name in values:
            print(f"  {name:<30} {values[name]:.6g} {PER_LAYER[name][0]}")
    if absent:
        print("  entry points missing: " + ", ".join(tracer.absent))
        print("  absent metrics: " + ", ".join(sorted(absent)))
    uncovered = sorted(u for _, unc in layer_rounds for u in unc)
    print(
        f"  request time outside every layer span: median "
        f"{1e3 * statistics.median(uncovered):.4g} ms per request, "
        f"{100 * values['request.uncovered_share']:.3g}% of request time"
    )
    return {k: (v, PER_LAYER[k][0]) for k, v in values.items()}


def run_all(args):
    """Each workload in a fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run_workload(args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
