#!/usr/bin/env python3
"""Serving benchmark of the hack library: one workload per run.

    python3 perfbench/run.py --workload chat|longdoc|pressure --seed N \
        --seconds S --trace 0|1

Builds perfbench_serving (and the library, from this checkout's sources)
into .bench_build/, runs the workload with the engine pool pinned to
LANES lanes, checks the outputs, and prints every metric by name with its
unit. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, timed with
tracing off, the wall-clock ones scaled to reference machine speed
(src/speed.h; the log prints the wall values too); with --trace 1 they are
its per_layer list from a second, traced run, and the Chrome trace-event
file is written next to the raw results. README.md describes the workloads and the metrics.

The exit code is non-zero when the build fails, a correctness or
non-vacuity check fails, or a steadiness guard trips (backlog growth, or a
TBT percentile on the boundary between the two step-time modes).
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_serving")
RUNS_DIR = os.path.join(REPO, ".bench_build", "runs")
BENCHMARK_JSON = os.path.join(REPO, "BENCHMARK.json")

LANES = 1                 # engine pool lanes (the caller alone), see README
MIN_BEYOND = 10           # samples a reported percentile must have beyond it
SLOW_STEP_FACTOR = 3.0    # a TBT gap this many medians long is a slow step
BINARY_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, flush=True)


# ------------------------------------------------------------------ stats

def beyond(tenths, n):
    """Samples strictly above the interpolation position of percentile
    tenths/10 (e.g. 905 -> p90.5) in n sorted samples."""
    return n - 1 - (tenths * (n - 1)) // 1000


def tail_tenths(n, min_beyond=MIN_BEYOND):
    """The highest percentile, on a 0.1 grid from p50 to p99.9, that has at
    least min_beyond samples beyond it; None when not even p50 has."""
    best = None
    for tenths in range(500, 1000):
        if beyond(tenths, n) >= min_beyond:
            best = tenths
    return best


def percentile(values, tenths):
    """Linear interpolation at position p*(n-1), as metrics/stats.cpp."""
    s = sorted(values)
    lo, rem = divmod(tenths * (len(s) - 1), 1000)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * rem / 1000.0


def summarize(values):
    """p50 and the tail percentile of a sample set, with its label."""
    n = len(values)
    tail = tail_tenths(n)
    if tail is None:
        raise ValueError(f"{n} samples cannot support p50 with "
                         f"{MIN_BEYOND} beyond it")
    return {"n": n, "p50": percentile(values, 500),
            "tail": percentile(values, tail), "tail_tenths": tail,
            "tail_label": f"p{tail / 10:g}", "tail_beyond": beyond(tail, n)}


def backlog_guard(waits, jct_p50):
    """An open-loop run passes when the median queue wait of its last
    quarter of requests (in due order) exceeds the first quarter's by no
    more than the JCT p50. Below capacity, waits rise and fall on the scale
    of one request's time in the system; past it they grow without bound,
    and the run fails."""
    q = max(1, len(waits) // 4)
    first = statistics.median(waits[:q])
    last = statistics.median(waits[-q:])
    return {"ok": last - first <= jct_p50, "first": first, "last": last,
            "limit": jct_p50}


def tbt_modes(gaps, tenths_list):
    """Gaps over SLOW_STEP_FACTOR x the median are slow-mode steps (a step
    that carried a prefill chunk, or a sequence waiting while swapped).
    Each reported percentile must sit at least MIN_BEYOND samples away from
    the rank where the slow mode starts, or a small shift in the mode mix
    would flip it between modes from run to run."""
    n = len(gaps)
    threshold = SLOW_STEP_FACTOR * statistics.median(gaps)
    slow = sum(1 for g in gaps if g > threshold)
    out = {"slow_share": slow / n, "threshold": threshold, "ok": True,
           "margins": {}}
    if slow == 0:
        return out
    boundary = n - slow  # rank (0-based) of the first slow-mode sample
    for tenths in tenths_list:
        pos = tenths * (n - 1) / 1000.0
        margin = abs(pos - (boundary - 0.5))
        out["margins"][f"p{tenths / 10:g}"] = margin
        if margin < MIN_BEYOND:
            out["ok"] = False
    return out


# ------------------------------------------------------------------ build

def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_serving", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_binary(args, raw_path, trace_path):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    if args.trace:
        cmd += ["--trace-file", trace_path]
    env = dict(os.environ, HACK_NUM_THREADS=str(LANES))
    try:
        proc = subprocess.run(cmd, env=env, timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps it
        log(f"error: {args.workload} run exceeded {BINARY_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        log(f"error: perfbench_serving exited {proc.returncode}")
        return None
    with open(raw_path) as f:
        return json.load(f)


# ---------------------------------------------------------------- metrics

# End-to-end metrics read on the wall clock, scaled to reference speed.
SCALED_TIMES = ("setup_s", "ttft_p50_s", "ttft_tail_s", "tbt_p50_s",
                "tbt_tail_s", "jct_p50_s", "jct_tail_s")


# How much the workloads' times move per unit move of the reference
# kernel's, on a log scale: a machine slowdown that stretches the kernel's
# slices 1.6x stretches the workloads ~1.3x. Fitted on four sets of runs
# (README.md, Steadiness); 1.0 over-corrected, 0.5 suited both workloads.
SPEED_ELASTICITY = 0.5


def speed_scale(speed):
    """(Reference slice time / this run's median slice time) to the power
    SPEED_ELASTICITY (see src/speed.h): times multiply by it, rates divide
    by it, and both then read as on a machine at reference speed."""
    ratio = speed["reference_slice_s"] / statistics.median(speed["slices_s"])
    return ratio ** SPEED_ELASTICITY


def end_to_end(raw):
    u = raw["untraced"]
    ttft, tbt, jct = (summarize(u[k]) for k in ("ttft_s", "tbt_s", "jct_s"))
    wall = {
        "setup_s": statistics.median(raw["setup_s"]),
        "ttft_p50_s": ttft["p50"],
        "ttft_tail_s": ttft["tail"],
        "tbt_p50_s": tbt["p50"],
        "tbt_tail_s": tbt["tail"],
        "jct_p50_s": jct["p50"],
        "jct_tail_s": jct["tail"],
        "tokens_per_s": u["generated"] / u["makespan_s"],
    }
    scale = speed_scale(raw["speed"])
    metrics = dict(wall)
    for k in SCALED_TIMES:
        metrics[k] = wall[k] * scale
    # An open loop's tokens/s is its offered load (below the knee), not a
    # speed: it stays as measured.
    if raw["rate_rps"] == 0:
        metrics["tokens_per_s"] = wall["tokens_per_s"] / scale
    metrics.update({
        "completed_frac": u["completed"] / u["submitted"],
        "token_match_frac": raw["sampled_match"] / raw["sampled"],
        "wire_bytes_per_prompt_token": raw["wire_bytes_per_prompt_token"],
        "peak_rss_mib": raw["peak_rss_mib"],
    })
    notes = {f"{k}_tail_s": f"{s['tail_label']} of {s['n']}, "
             f"{s['tail_beyond']} beyond"
             for k, s in (("ttft", ttft), ("tbt", tbt), ("jct", jct))}
    for k, s in (("ttft", ttft), ("tbt", tbt), ("jct", jct)):
        notes[f"{k}_p50_s"] = f"p50 of {s['n']}"
    notes["setup_s"] = f"median of {len(raw['setup_s'])} set-ups"
    for k, v in wall.items():
        notes[k] = (notes.get(k, "") + f"; wall {v:.6g}").lstrip("; ")
    return metrics, notes, {"ttft": ttft, "tbt": tbt, "jct": jct}, scale


def validate_declared(spec):
    """Metric names and units must follow the benchmark grammar."""
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
            raise ValueError(f"bad metric name or unit: {m}")
    if len(set(names)) != len(names):
        raise ValueError("metric names must be unique")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["chat", "longdoc", "pressure"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not build():
        log("error: build failed")
        return 1
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    validate_declared(spec)

    os.makedirs(RUNS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(RUNS_DIR, stem + ".raw.json")
    trace_path = os.path.join(RUNS_DIR, stem + ".trace.json")
    raw = run_binary(args, raw_path, trace_path)
    if raw is None:
        return 1

    fp = raw["fingerprint"]
    log("fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    u = raw["untraced"]
    open_loop = raw["rate_rps"] > 0
    load = (f"open loop at {raw['rate_rps']:g} req/s" if open_loop
            else f"offline batch, KV pool {raw['pool_blocks']} blocks")
    log(f"{args.workload}: {u['submitted']} requests, {load}; measured run "
        f"{u['wall_s']:.1f} s wall")
    if args.workload == "longdoc":
        log("  clock: TTFT/JCT/queue wait are fleet-timeline values "
            "(measured compute + netsim-modeled transfer); one TBT sample "
            "per request, its mean decode time per token")

    wrong, unsteady = [], []  # output failures; measurement-validity ones
    if fp["lanes"] != LANES:
        unsteady.append(f"pool has {fp['lanes']} lanes, expected {LANES}")
    for c in raw["checks"]:
        log(f"  check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
            f"({c['detail']})")
        if not c["ok"]:
            wrong.append(c["name"])
    if u["completed"] != u["submitted"]:
        wrong.append(f"{u['submitted'] - u['completed']} requests failed")

    e2e, notes, sums, scale = end_to_end(raw)
    speed = raw["speed"]
    by_cpu = {}
    for cpu, t in zip(speed["slice_cpus"], speed["slices_s"]):
        by_cpu.setdefault(int(cpu), []).append(t)
    per_cpu = ", ".join(f"vCPU {c} {statistics.median(v) * 1e3:.1f}"
                        for c, v in sorted(by_cpu.items()))
    log(f"  machine speed: {len(speed['slices_s'])} reference slices, median "
        f"{statistics.median(speed['slices_s']) * 1e3:.2f} ms ({per_cpu}) "
        f"against {speed['reference_slice_s'] * 1e3:.2f} ms; wall-clock "
        f"metrics x {scale:.4f} to reference speed")
    if open_loop:
        g = backlog_guard(u["queue_wait_s"], sums["jct"]["p50"])
        log(f"  backlog guard: {'ok' if g['ok'] else 'FAILED'} (queue wait "
            f"p50 first quarter {g['first']:.4f} s, last quarter "
            f"{g['last']:.4f} s, allowed growth {g['limit']:.4f} s)")
        if not g["ok"]:
            unsteady.append("backlog_guard")
    modes = tbt_modes(u["tbt_s"], [500, sums["tbt"]["tail_tenths"]])
    margins = ", ".join(f"{k} {v:.0f} samples" for k, v in
                        modes["margins"].items()) or "no slow mode"
    log(f"  TBT modes: slow-step share {modes['slow_share']:.2%} (gap > "
        f"{modes['threshold'] * 1e3:.1f} ms); distance from mode boundary: "
        f"{margins}: {'ok' if modes['ok'] else 'FAILED'}")
    if not modes["ok"]:
        unsteady.append("tbt_mode_boundary")

    if args.trace:
        metrics = raw["per_layer"]
        log(f"  trace: {trace_path}")
        notes = {}
        # The fleet's one run is both the untraced and the traced run.
        traced = raw.get("traced", {"submitted": 0, "completed": 0})
        attempted = u["submitted"] + traced["submitted"]
        completed = u["completed"] + traced["completed"]
    else:
        metrics = e2e
        attempted, completed = u["submitted"], u["completed"]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for m in declared:
        log(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']:<10} "
            f"{notes.get(m['name'], '')}")
    correct = not wrong
    for f in wrong + unsteady:
        log(f"FAILED: {f}")
    result = {"correct": correct, "attempted": attempted,
              "failed": attempted - completed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result), flush=True)
    return 0 if correct and not unsteady else 1


if __name__ == "__main__":
    sys.exit(main())
