#!/usr/bin/env python3
"""Serve-path benchmark: streams seeded ticks through serve::ServeDaemon.

    python3 servebench/run.py --workload paper-wikipedia --seed 1 \
        --seconds 45 --trace 0

Builds servebench_pass (this directory's CMake package, which compiles the
program from ../src) into $CARGO_TARGET_DIR/servebench (default
.bench_build/servebench), then starts one servebench_pass process per pass,
for whole passes while another still fits in --seconds.
Each pass is one daemon restart: set-up, then a tick stream as a closed
loop (a tick is sent when the previous slot is published).

--trace 0 streams the workload's whole stream in untraced passes, at least
MIN_PASSES passes and MIN_TICKS ticks in all, and prints the end-to-end
metrics. --trace 1 streams the workload's short stream (servebench.cpp) in
pairs of an untraced and a traced pass (metrics registry and spans on) and
prints the per-layer metrics. --workload all runs every workload in turn.
Before the result it prints the host context, one line per metric with its
unit and sample count, and the output checks; the last line is the JSON
result.
NOTES.md says why each workload and metric exists.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper-wikipedia", "scaled-32x256", "paper-wikipedia-deadline")
DEADLINE_WORKLOADS = ("paper-wikipedia-deadline",)

# slot_p90_ms needs at least this many ticks beyond its rank.
MIN_BEYOND = 10
# A --trace 0 run serves at least MIN_PASSES passes, so that it compares two
# processes' trajectories, and MIN_TICKS ticks, so that slot_p90_ms has
# MIN_BEYOND ticks beyond it: two passes of the 50-tick deadline stream.
MIN_PASSES = 2
MIN_TICKS = 100
# A hung pass ends the run. The longest pass, a whole scaled-32x256 stream
# on one worker, takes about 160 s.
PASS_TIMEOUT_S = 400

END_TO_END_UNITS = {
    "setup_s": "s",
    "stream_s": "s",
    "slot_p50_ms": "ms",
    "slot_p90_ms": "ms",
    "cpu_s": "s",
    "cost_total": "cost",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cloudnet.instance_build_ms": "ms",
    "serve.daemon_construct_ms": "ms",
    "serve.tick_parse_us": "us",
    "serve.overhead_ms": "ms",
    "serve.deadline_miss_share": "share",
    "serve.degraded_share": "share",
    "serve.repair_failed_share": "share",
    "core.p2_build_s": "s",
    "core.p2_barrier_s": "s",
    "core.warm_start_share": "share",
    "core.fallback_slots": "count",
    "core.admm_iterations_per_slot": "count",
    "core.admm_block_solves_per_slot": "count",
    "core.admm_stalls": "count",
    "solver.ipm_solves": "count",
    "solver.newton_steps_per_solve": "count",
    "solver.backtracks_per_step": "count",
    "solver.ipm_other_s": "s",
    "solver.simplex_iterations": "count",
    "solver.pdhg_solves": "count",
    "solver.pdhg_iterations": "count",
    "linalg.factor_s": "s",
    "linalg.tri_solve_s": "s",
    "linalg.symbolic_builds": "count",
    "linalg.symbolic_reuse_share": "share",
    "linalg.batch_lockstep_share": "share",
    "linalg.batch_width_mean": "lanes",
    "linalg.batch_factor_fallbacks": "count",
    "util.pool_threads": "count",
    "util.pool_tasks_per_slot": "count",
    "proc.cpu_per_wall": "ratio",
    "obs.trace_overhead_share": "share",
    "obs.spans_dropped": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------------
# Statistics. Small and pure so test_run.py can pin them down.


def percentile(samples, q):
    """Nearest-rank q-quantile of `samples` and how many samples lie beyond
    its rank (strictly later in sorted order)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """percentile(), refused when fewer than `min_beyond` samples lie beyond
    it: such a tail value is one or two unlucky samples, not a percentile."""
    value, beyond = percentile(samples, q)
    if beyond < min_beyond:
        raise ValueError(
            "p%g needs %d samples beyond it, have %d of %d"
            % (100 * q, min_beyond, beyond, len(samples)))
    return value


def share(part, base):
    """part / base, and 0 when the base is empty (the layer did no work)."""
    return part / base if base else 0.0


def registry_snapshot(export):
    """Counters and histogram (count, sum) pairs of one
    obs::Registry::render_json() export; gauges are left out."""
    snap = {"counters": {}, "histograms": {}}
    for metric in export["metrics"]:
        if metric["type"] == "counter":
            snap["counters"][metric["name"]] = metric["value"]
        elif metric["type"] == "histogram":
            snap["histograms"][metric["name"]] = (metric["count"],
                                                  metric["sum"])
    return snap


def registry_delta(before, after):
    """Change of every counter and histogram (count, sum) between two
    snapshots. An instrument registered between them starts from zero."""
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    histograms = {}
    for name, (count, total) in after["histograms"].items():
        count0, total0 = before["histograms"].get(name, (0, 0.0))
        histograms[name] = (count - count0, total - total0)
    return {"counters": counters, "histograms": histograms}


def sum_deltas(deltas):
    """Add per-pass registry deltas into one."""
    total = {"counters": {}, "histograms": {}}
    for delta in deltas:
        for name, value in delta["counters"].items():
            total["counters"][name] = total["counters"].get(name, 0) + value
        for name, (count, value) in delta["histograms"].items():
            count0, value0 = total["histograms"].get(name, (0, 0.0))
            total["histograms"][name] = (count0 + count, value0 + value)
    return total


def counter(delta, name):
    return delta["counters"].get(name, 0)


def hist_count(delta, name):
    return delta["histograms"].get(name, (0, 0.0))[0]


def hist_sum(delta, name):
    return delta["histograms"].get(name, (0, 0.0))[1]


# ---------------------------------------------------------------------------
# Metrics from pass records (the JSON servebench_pass prints).


def end_to_end(passes):
    """{name: (value, samples)} over untraced passes of one workload."""
    steps = [s for p in passes for s in p["step_s"]]
    setups = [a + b for p in passes
              for a, b in zip(p["setup_instance_s"], p["setup_daemon_s"])]
    ticks = sum(p["ticks"] for p in passes)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "stream_s": (statistics.median(p["stream_s"] for p in passes),
                     len(passes)),
        "slot_p50_ms": (1e3 * statistics.median(steps), len(steps)),
        "slot_p90_ms": (1e3 * tail_percentile(steps, 0.9), len(steps)),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), len(passes)),
        "cost_total": (statistics.median(p["cost_daemon"] for p in passes),
                       len(passes)),
        "ok_share": (share(sum(p["ok_ticks"] for p in passes), ticks), ticks),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] / 1024.0
                                          for p in passes), len(passes)),
    }


def per_layer(untraced, traced):
    """{name: (value, samples)} over pairs of short passes: bench timings
    from the untraced passes, registry deltas from the traced ones
    (reported per traced pass)."""
    n_ticks = sum(p["ticks"] for p in untraced)

    def flags(key):
        return sum(sum(p[key]) for p in untraced)

    repair_failed = sum(1 for p in untraced
                        for held, degraded in zip(p["hold_repair"],
                                                  p["degraded"])
                        if held and not degraded)
    overhead = [s - lat for p in untraced
                for s, lat in zip(p["step_s"], p["latency_s"])]
    parse = [s for p in untraced for s in p["parse_s"]]
    stream = statistics.median(p["stream_s"] for p in untraced)
    cpu = statistics.median(p["cpu_s"] for p in untraced)
    traced_stream = statistics.median(p["stream_s"] for p in traced)

    n = len(traced)
    delta = sum_deltas(registry_delta(p["registry_before"],
                                      p["registry_after"]) for p in traced)
    slots = sum(p["ticks"] for p in traced)
    newton_steps = hist_sum(delta, "sora_ipm_newton_steps")
    barrier = hist_sum(delta, "sora_p2_barrier_seconds") / n
    factor = hist_sum(delta, "sora_ipm_factor_seconds") / n
    tri_solve = hist_sum(delta, "sora_ipm_solve_seconds") / n
    symbolic = counter(delta, "sora_ipm_symbolic_builds")
    reuse = counter(delta, "sora_ipm_symbolic_reuse")
    warm = counter(delta, "sora_p2_warm_starts_total")
    cold = counter(delta, "sora_p2_cold_starts_total")

    values = {
        "cloudnet.instance_build_ms": (
            1e3 * statistics.median(s for p in untraced
                                    for s in p["setup_instance_s"]),
            sum(len(p["setup_instance_s"]) for p in untraced)),
        "serve.daemon_construct_ms": (
            1e3 * statistics.median(s for p in untraced
                                    for s in p["setup_daemon_s"]),
            sum(len(p["setup_daemon_s"]) for p in untraced)),
        "serve.tick_parse_us": (1e6 * statistics.median(parse), len(parse)),
        "serve.overhead_ms": (1e3 * statistics.median(overhead),
                              len(overhead)),
        "serve.deadline_miss_share": (share(flags("deadline_miss"), n_ticks),
                                      n_ticks),
        "serve.degraded_share": (share(flags("degraded"), n_ticks), n_ticks),
        "serve.repair_failed_share": (share(repair_failed, n_ticks), n_ticks),
        "core.p2_build_s": (hist_sum(delta, "sora_p2_build_seconds") / n, n),
        "core.p2_barrier_s": (barrier, n),
        "core.warm_start_share": (share(warm, warm + cold), warm + cold),
        "core.fallback_slots": (
            (counter(delta, "sora_resilience_fallbacks_total")
             - counter(delta, "sora_resilience_degraded_slots_total")) / n, n),
        "core.admm_iterations_per_slot": (
            share(hist_sum(delta, "sora_admm_iterations"), slots), slots),
        "core.admm_block_solves_per_slot": (
            share(counter(delta, "sora_admm_block_solves_total"), slots),
            slots),
        "core.admm_stalls": (counter(delta, "sora_admm_stalls_total") / n, n),
        "solver.ipm_solves": (hist_count(delta, "sora_ipm_newton_steps") / n,
                              n),
        "solver.newton_steps_per_solve": (
            share(newton_steps, hist_count(delta, "sora_ipm_newton_steps")),
            hist_count(delta, "sora_ipm_newton_steps")),
        "solver.backtracks_per_step": (
            share(hist_sum(delta, "sora_ipm_line_search_backtracks"),
                  newton_steps), int(newton_steps)),
        "solver.ipm_other_s": (barrier - factor - tri_solve, n),
        "solver.simplex_iterations": (
            hist_sum(delta, "sora_simplex_iterations") / n, n),
        "solver.pdhg_solves": (hist_count(delta, "sora_pdhg_iterations") / n,
                               n),
        "solver.pdhg_iterations": (hist_sum(delta, "sora_pdhg_iterations") / n,
                                   n),
        "linalg.factor_s": (factor, n),
        "linalg.tri_solve_s": (tri_solve, n),
        "linalg.symbolic_builds": (symbolic / n, n),
        "linalg.symbolic_reuse_share": (share(reuse, symbolic + reuse),
                                        symbolic + reuse),
        "linalg.batch_lockstep_share": (
            share(counter(delta, "sora_batch_lockstep_instances_total"),
                  counter(delta, "sora_batch_solves_total")),
            counter(delta, "sora_batch_solves_total")),
        "linalg.batch_width_mean": (
            share(hist_sum(delta, "sora_batch_lockstep_width"),
                  hist_count(delta, "sora_batch_lockstep_width")),
            hist_count(delta, "sora_batch_lockstep_width")),
        "linalg.batch_factor_fallbacks": (
            counter(delta, "sora_batch_factor_fallbacks_total") / n, n),
        "util.pool_threads": (traced[0]["pool_threads"], n),
        "util.pool_tasks_per_slot": (
            share(counter(delta, "sora_threadpool_tasks_total"), slots),
            slots),
        "proc.cpu_per_wall": (share(cpu, stream), len(untraced)),
        "obs.trace_overhead_share": (share(traced_stream - stream, stream),
                                     n),
        "obs.spans_dropped": (sum(p["spans_dropped"] for p in traced) / n, n),
    }
    assert set(values) == set(PER_LAYER_UNITS)
    return values


def registry_counts(delta):
    """The part of a registry delta that repeats exactly from pass to pass:
    every counter, every histogram's count, and the sums of histograms that
    do not hold seconds."""
    counts = dict(delta["counters"])
    for name, (count, total) in delta["histograms"].items():
        counts[name + ".count"] = count
        if not name.endswith("_seconds"):
            counts[name + ".sum"] = total
    return counts


def counts_digest(traced):
    """A short sha256 of a traced pass's registry counts, printed so that
    runs can be compared."""
    counts = registry_counts(registry_delta(traced["registry_before"],
                                            traced["registry_after"]))
    text = json.dumps(counts, sort_keys=True).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def check_registry(tag, untraced, traced):
    """A traced pass's registry deltas against what its untraced partner's
    SlotResults say about the same stream."""
    delta = registry_delta(traced["registry_before"], traced["registry_after"])
    misses = sum(untraced["deadline_miss"])
    # A slot whose own solve degraded is published as it is; every other
    # late slot is re-routed to hold-and-repair.
    degraded_misses = sum(m and d for m, d in zip(untraced["deadline_miss"],
                                                  untraced["degraded"]))
    reroutes = counter(delta, "sora_serve_deadline_reroutes_total")
    problems = []
    for name, want in (("sora_serve_ticks_total", untraced["ticks"]),
                       ("sora_resilience_degraded_slots_total",
                        sum(untraced["degraded"]))):
        if counter(delta, name) != want:
            problems.append("%s: %s moved by %r, the untraced pass says %d"
                            % (tag, name, counter(delta, name), want))
    if not misses - degraded_misses <= reroutes <= misses:
        problems.append("%s: %r deadline re-routes for %d misses (%d of them "
                        "degraded) in the untraced pass"
                        % (tag, reroutes, misses, degraded_misses))
    return problems


def check_passes(workload, untraced, traced):
    """Output checks over every pass of one run. Returns a list of problems
    (empty when the outputs are correct)."""
    problems = []
    passes = untraced + traced
    first = passes[0]
    for p in passes:
        tag = "%s pass (traced=%s)" % (workload, p["traced"])
        if not p["cost_match"]:
            problems.append("%s: daemon cost %r != core::total_cost %r"
                            % (tag, p["cost_daemon"], p["cost_recomputed"]))
        if p["fingerprint"] != first["fingerprint"]:
            problems.append("%s: trajectory fingerprint %s != %s"
                            % (tag, p["fingerprint"], first["fingerprint"]))
        if p["cost_daemon"] != first["cost_daemon"]:
            problems.append("%s: cost_total %r != %r"
                            % (tag, p["cost_daemon"], first["cost_daemon"]))
        if p["ok"] != first["ok"]:
            problems.append("%s: audit verdicts differ between passes" % tag)
        if workload in DEADLINE_WORKLOADS:
            if not all(p["deadline_miss"]):
                problems.append("%s: %d ticks met the budget, so the "
                                "trajectory depends on timing"
                                % (tag, p["deadline_miss"].count(0)))
        elif any(p["deadline_miss"]):
            problems.append("%s: deadline miss without a budget" % tag)
    for u, t in zip(untraced, traced):
        problems += check_registry("%s traced pass" % workload, u, t)
    counts = [counts_digest(t) for t in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("%s: registry counts differ between traced passes"
                        % workload)
    return problems


# ---------------------------------------------------------------------------
# Build, passes and host context.


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources at %s"
                         % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "servebench_pass",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(bdir, "servebench_pass")


def child_env():
    """The environment without any SORA_* variable: servebench_pass sets
    every input the program reads from the environment itself."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SORA_")}


def run_pass(binary, workload, seed, short=False, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if short:
        cmd.append("--short")
    if trace_out:
        cmd += ["--traced", "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=PASS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass timed out after %ds"
                         % (workload, PASS_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s pass exited with %d"
                         % (workload, proc.returncode))
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    for key in ("registry_before", "registry_after"):
        if key in record:
            record[key] = registry_snapshot(record[key])
    return record


def collect(binary, bdir, workload, seed, seconds, trace):
    """Whole passes while another one still fits in `seconds`. --trace 0:
    untraced passes of the whole stream until MIN_PASSES passes and
    MIN_TICKS ticks were served.
    --trace 1: pairs of an untraced and a traced pass of the short stream."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        untraced.append(run_pass(binary, workload, seed, short=trace == 1))
        if trace == 1:
            trace_out = os.path.join(bdir, "trace-%s.json" % workload)
            traced.append(run_pass(binary, workload, seed, True, trace_out))
        now = time.monotonic()
        served = sum(p["ticks"] for p in untraced)
        if trace == 0 and (len(untraced) < MIN_PASSES or served < MIN_TICKS):
            continue
        if now + (now - began) > start + seconds:
            return untraced, traced


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def build_type(bdir):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return None


def host_context(bdir, workload, seed, passes):
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "pool_threads": passes[0]["pool_threads"],
        "build_type": build_type(bdir),
        "compiler": passes[0]["compiler"],
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
        "demand_seed": passes[0]["demand_seed"],
        "start_hour": passes[0]["start_hour"],
        "ticks_per_pass": passes[0]["ticks"],
        "passes": len(passes),
    }


def print_table(title, values, units):
    print(title)
    for name, (value, samples) in values.items():
        print("  %-32s %16.6g %-6s n=%d" % (name, value, units[name], samples))


def run_workload(binary, bdir, workload, seed, seconds, trace):
    untraced, traced = collect(binary, bdir, workload, seed, seconds, trace)
    passes = untraced + traced
    problems = check_passes(workload, untraced, traced)
    print("context " + json.dumps(host_context(bdir, workload, seed, passes),
                                  sort_keys=True))
    if trace == 1:
        values = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
        title = "per-layer (pairs of an untraced and a traced pass: %d)"
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
        title = "end-to-end (untraced passes: %d)"
    print_table("%s %s" % (workload, title % len(untraced)), values, units)
    if untraced[0]["ok"].count(0):
        bad = [t for t, ok in enumerate(untraced[0]["ok"]) if not ok]
        worst = max(untraced[0]["violation"][t] or math.inf for t in bad)
        print("%s: %d of %d ticks publish an allocation that is not "
              "P1-feasible (worst violation %.4g): ticks %s"
              % (workload, len(bad), untraced[0]["ticks"], worst, bad))
    checks = {"fingerprint": untraced[0]["fingerprint"],
              "cost_total": untraced[0]["cost_daemon"],
              "ticks": untraced[0]["ticks"],
              "passes": len(passes)}
    if traced:
        checks["registry_counts"] = counts_digest(traced[0])
    print("%s checks %s: %s" % (workload, "failed" if problems else "passed",
                                json.dumps(checks, sort_keys=True)))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    metrics = {name: {"value": value, "unit": units[name]}
               for name, (value, _) in values.items()}
    attempted = sum(p["ticks"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return not problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bdir = build_dir()
        binary = build(bdir)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            ok, n, bad, values = run_workload(binary, bdir, workload,
                                              args.seed, args.seconds,
                                              args.trace)
            correct = correct and ok
            attempted += n
            failed += bad
            if len(workloads) > 1:
                values = {"%s/%s" % (workload, k): v
                          for k, v in values.items()}
            metrics.update(values)
    except BenchError as err:
        print("servebench: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
