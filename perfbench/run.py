#!/usr/bin/env python3
"""Cycle-level benchmark of the SocialTrust simulator.

Builds perfbench/simbench.cpp against the library sources in src/, runs full
sim::Simulator simulations of one workload from perfbench/workloads.json,
checks their outputs and prints every metric by name and unit. The last line
of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json when --trace 0 and the
per-layer metrics when --trace 1. Times are scaled to the reference
machine's speed by a calibration kernel timed between simulations (see
README.md). Exits non-zero when an output check fails, and without a result
when the build or a simulation fails.

Usage (from the repository root):
    python3 perfbench/run.py --workload sparse-10k --seed 1 --trace 0
    python3 perfbench/run.py                       # every workload, traced
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())
# Workloads BENCHMARK.json runs; a dropped one stays runnable by name.
KEPT = [w for w in SPEC["workloads"] if w not in SPEC["dropped"]]
SIM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
MASK64 = (1 << 64) - 1

# Metric name -> unit, in print order.
END_TO_END = {
    "cycle_ms_p50": "ms",
    "cycle_ms_tail": "ms",
    "update_ms_p50": "ms",
    "update_ms_tail": "ms",
    "ratings_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sim.query_ms_p50": "ms",
    "sim.self_share": "%",
    "sim.ratings_per_interval": "count",
    "sim.reputation_reads_per_interval": "count",
    "core.update_self_share": "%",
    "core.forget_self_share": "%",
    "core.forgets_per_interval": "count",
    "core.pairs_per_interval": "count",
    "core.pairs_dirty_share": "%",
    "core.raters_rebuilt_share": "%",
    "core.cache_hit_share": "%",
    "core.cache_structure_misses_per_interval": "count",
    "core.cache_invalidations_per_interval": "count",
    "core.cache_entries": "count",
    "core.flagged_pairs_per_interval": "count",
    "reputation.update_ms_p50": "ms",
    "reputation.update_share": "%",
    "reputation.forget_share": "%",
    "graph.csr_rebuilds_per_interval": "count",
    "graph.bytes_per_node": "B",
    "trace.overhead_pct": "%",
}
# Reported beside the metrics above but kept out of the JSON result: a
# layer that a workload never calls reads 0 ms here, and only the bare
# Kamvar EigenTrust (the dropped eigentrust-1k) reports iterations.
EXTRAS = {"core.update_self_ms_p50": "ms", "core.forget_self_ms_p50": "ms",
          "reputation.forget_ms_p50": "ms",
          "reputation.iterations_per_update": "count"}
LAYER_OF_SPAN = {
    "cycle": "unattributed",
    "sim.query": "sim",
    "core.update": "core",
    "core.forget": "core",
    "reputation.update": "reputation",
    "reputation.forget": "reputation",
}
LAYERS = ("sim", "core", "reputation")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---- inputs -----------------------------------------------------------------

def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def sim_seeds(seed, count):
    """Simulation seeds of a run. The first is the reference simulation of
    the default seed, whose digest workloads.json records, so every run
    checks the program's results; the rest derive from --seed."""
    anchor = splitmix64(SPEC["default_seed"])
    derived = [splitmix64((splitmix64(seed) + k) & MASK64)
               for k in range(1, count)]
    return [anchor] + derived


def simulations(workload, seconds, traced):
    """Simulations per run: fixed by the workload's nominal simulation time
    and --seconds, never by how fast the program runs, so two commits
    measure identical inputs and the tail percentile stays put."""
    per_sim = SPEC["workloads"][workload]["sim_seconds"]
    share = 2 if traced else 1  # a traced run also runs each seed untraced
    return max(1, round(seconds / (share * per_sim)))


def workload_flags(workload):
    c = SPEC["workloads"][workload]["config"]
    return ["--nodes", str(c["nodes"]),
            "--active-min", repr(c["active_prob"][0]),
            "--active-max", repr(c["active_prob"][1]),
            "--colluder-b", repr(c["colluder_b"]),
            "--cycles", str(c["cycles"]),
            "--system", c["system"],
            "--attack", c["attack"]]


# ---- build and run ----------------------------------------------------------

def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build():
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out)] + gen)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return out / "perfbench_sim"


def invoke(binary, args):
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=SIM_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary.name} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


# ---- machine speed ----------------------------------------------------------

def slowdowns(records):
    """How much longer than its reference time the calibration kernel took
    around each simulation (the geometric mean of its readings just before
    and just after it; the first simulations have only the one after), and
    around the run's set-ups (the median of all readings), each raised to
    calibration_exponent: the program's time moves more than the kernel's
    (see workloads.json). Every time is divided by the slowdown of the
    simulation it belongs to."""
    ref = SPEC["calibration_ns"]
    exponent = SPEC["calibration_exponent"]
    around, pending, before = {}, [], []
    for r in records:
        if r["rec"] == "sim":
            around[r["sim"]] = list(before)
            pending.append(r["sim"])
        elif r["rec"] == "cal":
            for sim in pending:
                around[sim].append(r["cal_ns"])
            pending, before = [], [r["cal_ns"]]
    per_sim = {sim: (statistics.geometric_mean(ns) / ref) ** exponent
               for sim, ns in around.items()}
    setup = (statistics.median(r["cal_ns"] for r in records
                               if r["rec"] == "cal") / ref) ** exponent
    return per_sim, setup


# ---- statistics -------------------------------------------------------------

def tail(values):
    """The highest nearest-rank percentile with at least 10 samples above
    it: (value, percentile, samples above, sample count)."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        raise ValueError(f"tail needs at least 11 samples, got {n}")
    rank = n - 10
    while rank > 1 and n - bisect.bisect_right(s, s[rank - 1]) < 10:
        rank -= 1
    value = s[rank - 1]
    return value, 100.0 * rank / n, n - bisect.bisect_right(s, value), n


def share(part, whole):
    return 100.0 * part / whole if whole else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def measured(records, traced):
    warm = SPEC["warmup_cycles"]
    return [r for r in records if r["rec"] == "cycle"
            and r["traced"] == traced and r["cycle"] >= warm]


def end_to_end(records, slow, setup_slow, notes):
    cycles = measured(records, 0)
    cyc = [r["cycle_ns"] / slow[r["sim"]] / 1e6 for r in cycles]
    upd = [r["update_ns"] / slow[r["sim"]] / 1e6 for r in cycles]
    setups = [r["setup_ns"] for r in records
              if r["rec"] == "setup" or (r["rec"] == "sim" and not r["traced"])]
    rss = next(r["peak_rss_kb"] for r in records if r["rec"] == "rss")
    m = {"cycle_ms_p50": statistics.median(cyc),
         "update_ms_p50": statistics.median(upd),
         "ratings_per_s": sum(r["ratings"] for r in cycles)
         / sum(r["cycle_ns"] / slow[r["sim"]] for r in cycles) * 1e9,
         "setup_s": statistics.median(setups) / setup_slow / 1e9,
         "peak_rss_mb": rss / 1024.0}
    for name, vals in (("cycle_ms_tail", cyc), ("update_ms_tail", upd)):
        m[name], pct, above, n = tail(vals)
        notes[name] = f"p{pct:.1f} of {n} cycles, {above} above"
    notes["ratings_per_s"] = (
        f"{mean([r['ratings'] for r in cycles]):.0f} ratings per interval")
    notes["setup_s"] = f"median of {len(setups)} set-ups"
    notes["peak_rss_mb"] = "after the reference simulation"
    sims = sorted({r["sim"] for r in cycles})
    notes["machine"] = (
        "times divided by "
        f"{statistics.median(slow[s] for s in sims):.3f} (median over the "
        f"simulations) and set-ups by {setup_slow:.3f}; unscaled medians: "
        "cycle "
        f"{statistics.median(r['cycle_ns'] for r in cycles) / 1e6:.4g} ms, "
        f"update {statistics.median(r['update_ns'] for r in cycles) / 1e6:.4g}"
        f" ms, setup {statistics.median(setups) / 1e9:.4g} s")
    return m


def span_self_times(spans):
    """Self time of every span: its duration minus its children's."""
    self_ns = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end"] - s["start"]
    return self_ns


def per_layer(records, spans, slow, nodes, notes):
    warm = SPEC["warmup_cycles"]
    cycles = measured(records, 1)
    spans = [s for s in spans if s["cycle"] >= warm]
    self_ns = span_self_times(spans)

    # Per (sim, cycle): self time by span name.
    by_cycle = {}
    for s in spans:
        key = (s["sim"], s["cycle"])
        row = by_cycle.setdefault(key, {n: 0 for n in LAYER_OF_SPAN})
        row[s["name"]] += self_ns[s["id"]]
    rows = list(by_cycle.values())
    cycle_total = sum(s["end"] - s["start"] for s in spans
                      if s["name"] == "cycle")
    layer_ns = {layer: 0 for layer in LAYERS + ("unattributed",)}
    for r in rows:
        for name, ns in r.items():
            layer_ns[LAYER_OF_SPAN[name]] += ns

    def p50_ms(name):
        return statistics.median(row[name] / slow[sim]
                                 for (sim, _), row in by_cycle.items()) / 1e6

    def span_share(name):
        return share(sum(r[name] for r in rows), cycle_total)

    pairs = sum(r["pairs_total"] for r in cycles)
    raters = sum(r["raters_rebuilt"] + r["raters_carried"] for r in cycles)
    lookups = sum(r["cache_hits"] + r["cache_misses"] for r in cycles)
    last = {}
    for r in records:
        if r["rec"] == "cycle" and r["traced"]:
            last[r["sim"]] = r  # final interval of each traced simulation

    # Trace overhead per seed: each traced simulation ran right next to an
    # untraced one on the same seed, so the ratio cancels slow drift in the
    # machine's speed that a pooled comparison would pick up.
    seed_of = {r["sim"]: r["seed"] for r in records if r["rec"] == "sim"}
    pairs_ns = {}
    for r in measured(records, 0) + cycles:
        pair = pairs_ns.setdefault(seed_of[r["sim"]], ([], []))
        pair[r["traced"]].append(r["cycle_ns"] / slow[r["sim"]])
    overhead = statistics.median(
        statistics.median(t) / statistics.median(u)
        for u, t in pairs_ns.values())

    m = {"sim.query_ms_p50": p50_ms("sim.query"),
         "sim.self_share": span_share("sim.query"),
         "sim.ratings_per_interval": mean([r["ratings"] for r in cycles]),
         "sim.reputation_reads_per_interval":
             mean([r["reads"] for r in cycles]),
         "core.update_self_share": span_share("core.update"),
         "core.forget_self_share": span_share("core.forget"),
         "core.forgets_per_interval": mean([r["forgets"] for r in cycles]),
         "core.pairs_per_interval": pairs / len(cycles),
         "core.pairs_dirty_share":
             share(sum(r["pairs_dirty"] for r in cycles), pairs),
         "core.raters_rebuilt_share":
             share(sum(r["raters_rebuilt"] for r in cycles), raters),
         "core.cache_hit_share":
             share(sum(r["cache_hits"] for r in cycles), lookups),
         "core.cache_structure_misses_per_interval":
             mean([r["cache_structure_misses"] for r in cycles]),
         "core.cache_invalidations_per_interval":
             mean([r["cache_invalidations"] for r in cycles]),
         "core.cache_entries":
             mean([r["cache_entries"] for r in last.values()]),
         "core.flagged_pairs_per_interval":
             mean([r["flagged"] for r in cycles]),
         "reputation.update_ms_p50": p50_ms("reputation.update"),
         "reputation.update_share": span_share("reputation.update"),
         "reputation.forget_share": span_share("reputation.forget"),
         "graph.csr_rebuilds_per_interval":
             mean([r["csr_rebuilds"] for r in cycles]),
         "graph.bytes_per_node":
             mean([r["graph_bytes"] for r in last.values()]) / nodes,
         "trace.overhead_pct": 100.0 * (overhead - 1.0)}
    extra = {"core.update_self_ms_p50": p50_ms("core.update"),
             "core.forget_self_ms_p50": p50_ms("core.forget"),
             "reputation.forget_ms_p50": p50_ms("reputation.forget"),
             "reputation.iterations_per_update":
                 mean([r["iterations"] for r in cycles])}
    notes["trace.overhead_pct"] = (
        f"median over {len(pairs_ns)} seeds of traced vs untraced cycle p50")
    return m, extra, layer_ns, cycle_total


# ---- one workload -----------------------------------------------------------

def run_workload(binary, workload, seed, seconds, traced):
    spec = SPEC["workloads"][workload]
    count = simulations(workload, seconds, traced)
    seeds = sim_seeds(seed, count)
    build_out = build_dir()
    spans_path = build_out / f"spans-{workload}-{seed}.jsonl"
    args = ["run"] + workload_flags(workload) + [
        "--seeds", ",".join(map(str, seeds)),
        "--setups", str(spec["setups"])]
    if traced:
        args += ["--traced", "1", "--spans", str(spans_path)]
    records = invoke(binary, args)
    slow, setup_slow = slowdowns(records)

    sims = [r for r in records if r["rec"] == "sim"]
    attempted = sum(r["attempted"] for r in sims)
    failed = sum(r["failed"] for r in sims)
    problems = [f"sim {r['sim']}: {r['what']}" for r in records
                if r["rec"] == "failure"]
    reference = next(r for r in sims if r["seed"] == seeds[0])
    if reference["digest"] != spec["digest"]:
        problems.append(f"reference digest {reference['digest']} != "
                        f"recorded {spec['digest']}")
    by_seed = {}
    for r in sims:
        by_seed.setdefault(r["seed"], set()).add(r["digest"])
    for s, digests in by_seed.items():
        if len(digests) > 1:
            problems.append(f"seed {s}: traced and untraced digests differ")

    notes = {}
    e2e = end_to_end(records, slow, setup_slow, notes)
    c = spec["config"]
    print(f"perfbench {workload}: seed {seed}, {count} simulation(s) of "
          f"{c['cycles']} cycles{' traced + untraced' if traced else ''}, "
          f"first {SPEC['warmup_cycles']} cycles of each not timed; "
          f"{c['nodes']} nodes, {c['system']} under {c['attack']}")
    print("end-to-end (untraced simulations; times at reference speed):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<42} {e2e[name]:>14.6g} {unit:<6} "
              f"{notes.get(name, '')}")
    print(f"  machine: {notes['machine']}")
    metrics = e2e
    if traced:
        spans = [json.loads(line) for line in
                 spans_path.read_text().splitlines() if line]
        layer, extra, layer_ns, cycle_total = per_layer(
            records, spans, slow, c["nodes"], notes)
        print("per-layer (traced simulations):")
        for name, unit in PER_LAYER.items():
            print(f"  {name:<42} {layer[name]:>14.6g} {unit:<6} "
                  f"{notes.get(name, '')}")
        for name, unit in EXTRAS.items():
            print(f"  {name:<42} {extra[name]:>14.6g} {unit:<6} "
                  "(0 where the layer is never called)")
        print_layer_table(layer_ns, cycle_total)
        metrics = layer
    print(f"checks: {attempted} intervals, {failed} failed; reference digest "
          f"{reference['digest']}; {len(by_seed)} seed(s)")
    for p in problems[:10]:
        print("  CHECK FAILED:", p)
    if len(problems) > 10:
        print(f"  ... and {len(problems) - 10} more")
    correct = failed == 0 and not problems
    return correct, attempted, failed, metrics


def print_layer_table(layer_ns, cycle_total):
    print("layer self time (measured cycles of the traced simulations):")
    for layer in LAYERS + ("unattributed",):
        print(f"  {layer:<14} {layer_ns[layer] / 1e6:>12.3f} ms "
              f"{share(layer_ns[layer], cycle_total):>7.2f} %")
    print("  graph          counts only (its BFS runs inside core calls)")
    total = sum(layer_ns.values())
    dominant = max(LAYERS, key=lambda name: layer_ns[name])
    print(f"  dominant layer: {dominant}; self times sum to "
          f"{total / 1e6:.3f} ms of {cycle_total / 1e6:.3f} ms traced cycle "
          f"time")


# ---- self-test --------------------------------------------------------------

def self_test(binary):
    ok = True

    def expect(cond, what):
        nonlocal ok
        ok &= cond
        print(("ok   " if cond else "FAIL ") + what)

    # Tail rule: highest percentile with >= 10 samples above it.
    v, pct, above, n = tail(list(range(1, 101)))
    expect((v, pct, above, n) == (90, 90.0, 10, 100),
           f"tail of 1..100 is p{pct:g} = {v}, {above} above, n={n}")
    v, pct, above, n = tail(list(range(280, 0, -1)))
    expect((v, above, n) == (270, 10, 280) and abs(pct - 96.4286) < 1e-3,
           f"tail of 280 samples is p{pct:.1f} = {v}, {above} above")
    v, pct, above, n = tail([1.0] * 50 + [2.0] * 50)
    expect((v, pct, above) == (1.0, 50.0, 50),
           f"tail with ties steps down to p{pct:g} = {v}, {above} above")
    try:
        tail([1.0] * 10)
        expect(False, "tail rejects fewer than 11 samples")
    except ValueError:
        expect(True, "tail rejects fewer than 11 samples")

    # Output check: injected NaN, negative entry, wrong sum.
    proc = subprocess.run([str(binary), "selftest"], stdout=subprocess.PIPE,
                          text=True, timeout=SIM_TIMEOUT_S, check=False)
    for line in proc.stdout.splitlines():
        r = json.loads(line)
        expect(r["ok"], f"output check, {r['case']}: "
                        f"flags '{r['got']}' (expected '{r['expect']}')")
    expect(proc.returncode == 0, "output-check self-test exit code")

    # Decorators do not change results: the reference simulation's digest is
    # the same bare, decorated and traced, and equals the recorded one.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(KEPT),
           "BENCHMARK.json names the kept workloads of workloads.json")
    seed = sim_seeds(SPEC["default_seed"], 1)[0]
    for workload in SPEC["workloads"]:
        flags = workload_flags(workload)
        bare = invoke(binary, ["digest", "--seed", str(seed)] + flags)[0]
        bare = bare["digest"]
        recs = invoke(binary, ["run", "--seeds", str(seed), "--traced", "1"]
                     + flags)
        wrapped = {r["traced"]: r["digest"] for r in recs if r["rec"] == "sim"}
        recorded = SPEC["workloads"][workload]["digest"]
        expect(bare == wrapped[0] == wrapped[1] == recorded,
               f"{workload}: digest bare {bare}, decorated {wrapped[0]}, "
               f"traced {wrapped[1]}, recorded {recorded}")
    return ok


# ---- main -------------------------------------------------------------------

def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="workload name from workloads.json, or 'all' "
                        "(every kept workload)")
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="1: per-layer metrics from traced simulations "
                        "(default 1 for 'all', else 0)")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if a.workload != "all" and a.workload not in SPEC["workloads"]:
        p.error(f"unknown workload {a.workload!r}; known: "
                + ", ".join(SPEC["workloads"]))

    try:
        binary = build()
        if a.self_test:
            return 0 if self_test(binary) else 1
        workloads = KEPT if a.workload == "all" else [a.workload]
        traced = bool(a.trace if a.trace is not None
                      else a.workload == "all")
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in workloads:
            correct, attempted, failed, metrics = run_workload(
                binary, w, a.seed, a.seconds, traced)
            result["correct"] &= correct
            result["attempted"] += attempted
            result["failed"] += failed
            units = PER_LAYER if traced else END_TO_END
            prefix = "" if len(workloads) == 1 else w + "/"
            for name, unit in units.items():
                result["metrics"][prefix + name] = {"value": metrics[name],
                                                    "unit": unit}
    except (RuntimeError, OSError, ValueError, KeyError, StopIteration,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e!r}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
