#!/usr/bin/env python3
"""The OFC reproduction's benchmark: one command per workload run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `perfbench` package (release
profile, into $CARGO_TARGET_DIR or `.bench_build`), then runs the workload
as separate processes, one simulation each, until `--seconds` of host time
have passed (at least three runs untraced; at least one untraced and one
traced with `--trace 1`). Every process is checked:

* conservation: completed + failed invocations == arrivals;
* read accounting: the records' hits and misses equal the cache plane's;
* durability: no write-back pending or dead-lettered at the end;
* determinism: every run of the seed, traced or not, has one digest.

The last line of stdout is one JSON object: `correct`, `attempted` (the
simulations run), `failed` (those that broke a check) and `metrics`, the
end-to-end metrics (medians over the untraced runs) with `--trace 0` and
the per-layer metrics with `--trace 1`. The lines before it print every
metric with its unit. A failed check exits 1. Traced runs also leave
their span log and per-layer table under `.bench_out/`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("mega_hour", "paper_day", "mega_failover", "mega_attack")
# A single simulation must end well inside the 180 s budget of a run.
CHILD_TIMEOUT_S = 150
MIN_PLAIN_RUNS = 3
MAX_RUNS = 64

# End-to-end metrics, from untraced runs: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "invocations_per_calib": "1/calib",
    "peak_rss_mb": "MB",
    "completed_pct": "%",
}

# Host figures printed beside them.
HOST = {
    "invocations_per_s": "1/s",
    "calib_s": "s",
}

# Simulated outcomes; identical for every run of a seed.
OUTCOME = {
    "failed_pct": "%",
    "hit_ratio_pct": "%",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_samples": "count",
}

# Per-layer metric units by name suffix; anything else is a count.
SUFFIX_UNITS = (
    ("_per_s", "1/s"),
    ("_s", "s"),
    ("_pct", "%"),
    ("_ms", "ms"),
    (".us_per_event", "us"),
    ("_growth", "ratio"),
    ("_mean", "count"),
)


def unit_of(name):
    if ".bytes_" in name:
        return "B"
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    if not os.path.isfile(MANIFEST):
        log("perfbench: no manifest at perfbench/Cargo.toml")
        return None
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    binary = os.path.join(ROOT, target, "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def simulate(binary, workload, seed, traced, spans=None):
    """Runs one simulation in its own process.

    Returns (ok, result, peak RSS in MB). The peak comes from the child's
    own rusage, so no run inherits another's high-water mark.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"perfbench: {workload} seed {seed}: no result (exit {proc.returncode})")
        return False, None, 0.0
    ok = proc.returncode == 0 and all(result["checks"].values())
    if not ok:
        log(f"perfbench: {workload} seed {seed}: checks {result['checks']} exit {proc.returncode}")
    return ok, result, usage.ru_maxrss / 1024.0


def outcome(r):
    """The simulated figures of one run (deterministic for a seed)."""
    arrivals = max(r["arrivals"], 1)
    return {
        "completed_pct": 100.0 * r["completed"] / arrivals,
        "failed_pct": 100.0 * r["failed"] / arrivals,
        "hit_ratio_pct": r["hit_ratio_pct"],
        "latency_p50_ms": r["latency_p50_ms"],
        "latency_p99_ms": r["latency_p99_ms"],
        "latency_samples": r["latency_samples"],
    }


def median(values):
    return statistics.median(values) if values else 0.0


def invocations_per_calib(runs):
    """Completed invocations per calibration unit of pump time, over runs
    of one seed.

    A calibration unit is the host time the fixed reference computation
    (`clock::calibrate`) took in the same process, so the figure does not
    move when the whole machine speeds up or slows down, as a shared one
    does over minutes. Every run executes the same slices, so each slice's
    time is the median over the runs: a burst of interference that slows
    some slices of one run drops out."""
    slices = [[s / r["calib_s"] for s in r["slices_s"]] for r in runs]
    if len({len(s) for s in slices}) != 1:
        pump = median([r["pump_s"] / r["calib_s"] for r in runs])
    else:
        pump = sum(median(column) for column in zip(*slices))
    return runs[0]["completed"] / pump if pump > 0 else 0.0


def host_figures(runs):
    return {
        "invocations_per_s": median([r["invocations_per_s"] for r in runs]),
        "calib_s": median([r["calib_s"] for r in runs]),
    }


def layer_metrics(plain, traced):
    """Per-layer metrics: medians over the traced runs, plus the tracing
    overhead against the untraced runs and the simulated outcomes."""
    names = list(traced[0]["layers"])
    metrics = {n: median([r["layers"][n] for r in traced]) for n in names}
    ips_plain = invocations_per_calib(plain)
    ips_traced = invocations_per_calib(traced)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - ips_traced / ips_plain) if ips_plain else 0.0
    host = host_figures(plain)
    metrics["simtime.invocations_per_s"] = host["invocations_per_s"]
    metrics["host.calib_s"] = host["calib_s"]
    o = outcome(traced[0])
    metrics["faas.failed_pct"] = o["failed_pct"]
    metrics["faas.latency_p50_ms"] = o["latency_p50_ms"]
    metrics["faas.latency_p99_ms"] = o["latency_p99_ms"]
    metrics["faas.latency_samples"] = o["latency_samples"]
    metrics["plane.hit_ratio_pct"] = o["hit_ratio_pct"]
    return metrics


def write_layer_table(workload, seed, metrics):
    path = os.path.join(OUT_DIR, f"layers-{workload}.md")
    with open(path, "w") as f:
        f.write(f"# {workload}, seed {seed}: per-layer breakdown (traced)\n\n")
        f.write("| metric | value | unit |\n|---|---:|---|\n")
        for name, value in metrics.items():
            f.write(f"| `{name}` | {value:.6g} | {unit_of(name)} |\n")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1

    traced_mode = args.trace == 1
    spans = None
    if traced_mode:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")

    plain, traced, rss = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while attempted < MAX_RUNS:
        elapsed = time.monotonic() - start
        if traced_mode:
            if plain and traced and elapsed >= args.seconds:
                break
            as_traced = len(traced) < len(plain)
        else:
            if len(plain) >= MIN_PLAIN_RUNS and elapsed >= args.seconds:
                break
            as_traced = False
        ok, result, peak = simulate(
            binary, args.workload, args.seed, as_traced, spans if as_traced else None
        )
        attempted += 1
        if not ok:
            failed += 1
            if result is None:
                break
            continue
        (traced if as_traced else plain).append(result)
        if not as_traced:
            rss.append(peak)

    # Determinism: one digest for every run of the seed, traced or not.
    digests = {r["digest"] for r in plain + traced}
    if len(digests) > 1:
        log(f"perfbench: {args.workload} seed {args.seed}: digests differ: {sorted(digests)}")
        failed += 1
    correct = failed == 0 and bool(plain) and (bool(traced) or not traced_mode)

    metrics = {}
    if plain:
        o = outcome(plain[0])
        e2e = {
            "setup_s": median([r["setup_s"] for r in plain]),
            "invocations_per_calib": invocations_per_calib(plain),
            "peak_rss_mb": median(rss),
            "completed_pct": o["completed_pct"],
        }
        print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced runs")
        for name, value in e2e.items():
            print(f"  {name:<22} {value:>14.6g} {END_TO_END[name]}")
        for name, value in host_figures(plain).items():
            print(f"  {name:<22} {value:>14.6g} {HOST[name]}")
        for name, unit in OUTCOME.items():
            print(f"  {name:<22} {o[name]:>14.6g} {unit}")
        if traced_mode and traced:
            metrics = layer_metrics(plain, traced)
            table = write_layer_table(args.workload, args.seed, metrics)
            print(f"  per-layer table: {os.path.relpath(table, ROOT)}")
            print(f"  spans: {os.path.relpath(spans, ROOT)}")
            metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()}
        else:
            metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}

    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
