#!/usr/bin/env python3
"""The repository benchmark: host cost of fixed simulated experiments.

Run from the repository root:

    python3 perfbench/run.py --workload pipe_wfq --seed 0 --seconds 10 --trace 0

Builds the simulator and the benchmark runner from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs one
workload for the given wall-clock budget, checks every repetition's
simulated outputs against perfbench/goldens.json, and prints one JSON object
as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (run_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 reports the per-layer metrics of a traced run. The
lines before the last one carry the host facts and, in traced runs, the
per-layer rows that do not apply to the workload.

Other modes:
    --all            run every workload and print a table (no result line)
    --self-test      build and run the benchmark's own tests
    --write-goldens  regenerate perfbench/goldens.json (see GOLDEN_SEEDS)
"""

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDENS = BENCH_DIR / "goldens.json"

WORKLOADS = ["pipe_wfq", "dispersive_shinjuku", "mt256_sharded", "schbench_wfq_recorded"]
SEEDED = {"dispersive_shinjuku", "mt256_sharded"}
# Seeds with stored goldens for the seeded workloads: the range a sweep is
# likely to use, plus one held-out seed per workload that was never used
# while the benchmark was sized.
GOLDEN_SEEDS = list(range(0, 32))
HELD_OUT_SEED = {"dispersive_shinjuku": 104729, "mt256_sharded": 130363}

RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no simulator sources at", ROOT / "src")
        sys.exit(1)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return out / target


def without_aslr():
    """Runs in the child before exec: turns off address-space layout
    randomization for the runner. With it on, each process draws a layout,
    and pipe_wfq runs ~0.35 s in some and ~0.6 s in others for the whole
    process, so a run's median depended on the draw. Where the kernel
    refuses, the runner reports "aslr": true among the host facts."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
        if persona != -1:
            libc.personality(persona | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


def run_runner(binary, workload, seed, seconds, trace, scale=1.0, min_reps=3):
    trace_out = build_dir() / f"trace-{workload}-{seed}.json"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scale", repr(scale), "--min-reps", str(min_reps),
           "--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, preexec_fn=without_aslr)
    if proc.returncode != 0:
        log("perfbench: runner exited with", proc.returncode)
        sys.exit(1)
    return json.loads(proc.stdout)


# ---- Golden-output check ---------------------------------------------------------


def load_goldens():
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text())
    return {}


def golden_key(workload, seed):
    return str(seed) if workload in SEEDED else "*"


def outputs_fields(text):
    return dict(kv.split("=", 1) for kv in text.split())


def sane(workload, text):
    """Invariants every run of the workload must meet, golden or not."""
    f = outputs_fields(text)
    if workload == "pipe_wfq":
        return f.get("completed") == "1"
    if workload == "dispersive_shinjuku":
        return int(f.get("completed", "0")) > 0
    if workload == "mt256_sharded":
        return int(f.get("completed", "0")) > 0
    ok, total = f.get("upgrades_ok", "0/1").split("/")
    saves, calls = f.get("checkpoints", "0/1").split("/")
    return (ok == total and int(total) > 0 and saves == calls and f.get("trips") == "0"
            and f.get("record_dropped") == "0")


def check_reps(workload, seed, reps, goldens):
    """Counts repetitions whose simulated outputs are wrong.

    The expected outputs are the stored golden for (workload, seed); for a
    seed without one, the first repetition's outputs. Every repetition,
    traced or not, must reproduce them byte for byte and meet the
    workload's invariants. Flat-twin repetitions model a different engine
    and are checked only against their own first repetition."""
    expected = goldens.get(workload, {}).get(golden_key(workload, seed))
    flat_expected = None
    failed = 0
    for rep in reps:
        out = rep["outputs"]
        if rep["mode"] == "flat":
            flat_expected = flat_expected or out
            bad = out != flat_expected
        else:
            expected = expected or out
            bad = out != expected or not sane(workload, out)
        if bad:
            failed += 1
            log(f"perfbench: {workload} seed {seed} {rep['mode']} outputs differ:\n  got      {out}"
                f"\n  expected {flat_expected if rep['mode'] == 'flat' else expected}")
    return failed, workload in goldens and golden_key(workload, seed) in goldens[workload]


# ---- Metric reduction --------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result):
    plain = [r for r in result["reps"] if r["mode"] == "plain"]
    setups = [s for r in plain for s in r["setup_s"]]
    return {
        "run_s": (median([r["run_s"] for r in plain]), "s"),
        "cpu_s": (median([r["cpu_s"] for r in plain]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


ENOKI_CBS = ["select_rq", "enqueue", "dequeue", "pick", "balance", "tick", "preempt"]
SCHED_CBS = ["pick", "wakeup", "select_rq", "balance", "tick", "timer"]


def ratio(num, den):
    return num / den if den else 0.0


class TracedRep:
    """Layer self times of one traced repetition, corrected for the tracing
    cost the runner calibrated next to it (span_cost: per layer, the ns a
    span adds inside itself and outside, in its parent). Child spans are
    always module calls: the runtime and the benchmark's write-side calls
    only call into the policy module."""

    def __init__(self, rep):
        self.rep = rep
        self.cost = rep["span_cost"]
        self.spans = rep["spans"]
        self.wall_ns = rep["run_s"] * 1e9

    def agg(self, key):
        return self.spans.get(key, [0, 0, 0, 0])

    def self_ns(self, key):
        calls, total, child, children = self.agg(key)
        c_self = self.cost[key.split(".")[0]][0]
        return total - child - c_self * calls - self.cost["sched"][1] * children

    def inclusive_ns(self, key):
        calls, total, _, children = self.agg(key)
        c_self = self.cost[key.split(".")[0]][0]
        return total - c_self * calls - sum(self.cost["sched"]) * children

    def layer(self, layer):
        keys = [k for k in self.spans if k.split(".")[0] == layer]
        calls = sum(self.agg(k)[0] for k in keys)
        return calls, sum(self.self_ns(k) for k in keys)

    def simkernel_self_ns(self):
        outside = sum(self.cost[layer][1] * n for layer, n in self.rep["top_spans"].items())
        return self.wall_ns - self.rep["top_ns"] - outside

    def corrected_total_ns(self):
        """Every layer's corrected self time: the run as if untraced."""
        layers = {k.split(".")[0] for k in self.spans}
        return self.simkernel_self_ns() + sum(self.layer(name)[1] for name in layers)


def per_layer(workload, result, units):
    """Returns ({name: (value, unit)}, [not applicable names])."""
    reps = result["reps"]
    plain = [r for r in reps if r["mode"] == "plain"]
    counts = plain[0]["counts"]
    events = counts.get("event_loop.events", 0)
    m = {}
    na = []

    def put(name, values, applies=True):
        unit = units[name]
        if not applies:
            na.append(name)
            m[name] = (0.0, unit)
            return
        if not isinstance(values, list):
            values = [values]
        m[name] = (median(values), unit)

    run_plain = median([r["run_s"] for r in plain])
    single_loop = workload != "mt256_sharded"
    traced = [TracedRep(r) for r in reps if r["mode"] == "traced"]

    # simkernel: event loop + SchedCore
    if single_loop:
        put("simkernel.self_ns_per_event", [ratio(t.simkernel_self_ns(), events) for t in traced])
        put("simkernel.slice_ns_per_event_p50", [t.rep["slice_p50"] for t in traced])
        put("simkernel.slice_ns_per_event_p99", [t.rep["slice_p99"] for t in traced])
    else:
        put("simkernel.self_ns_per_event",
            [ratio(r["run_s"] * 1e9 - r["counts"].get("sharded.barrier_ns", 0)
                   - r["counts"].get("sharded.commit_ns", 0), events) for r in plain])
        put("simkernel.slice_ns_per_event_p50", 0, applies=False)
        put("simkernel.slice_ns_per_event_p99", 0, applies=False)
    put("event_loop.events", events)
    put("event_loop.lane_hit_frac",
        ratio(counts["event_loop.lane_hits"],
              counts["event_loop.lane_hits"] + counts["event_loop.lane_spills"]))
    put("event_loop.cascades", counts["event_loop.cascades"])
    put("event_loop.behind_inserts", counts["event_loop.behind_inserts"])
    put("sched_core.context_switches", counts["sched_core.context_switches"])
    put("sched_core.coalesced_ipis", counts["sched_core.coalesced_ipis"])

    # enoki read side (runtime shim behind SchedClass)
    put("enoki.self_ns_per_call", [ratio(t.layer("enoki")[1], t.layer("enoki")[0]) for t in traced],
        applies=single_loop)
    put("enoki.calls", [t.layer("enoki")[0] for t in traced], applies=single_loop)
    for cb in ENOKI_CBS:
        key = "enoki." + cb
        put(key + ".calls", [t.agg(key)[0] for t in traced], applies=single_loop)
        put(key + ".ns_per_call", [ratio(t.self_ns(key), t.agg(key)[0]) for t in traced],
            applies=single_loop)
    put("enoki.pick_error_frac",
        [ratio(counts.get("enoki.pick_errors", 0), t.agg("enoki.pick")[0]) for t in traced],
        applies=single_loop)

    # enoki write side: record, checkpoint, upgrade
    recorded = workload == "schbench_wfq_recorded"
    put("enoki.record.entries", counts.get("enoki.record.entries", 0), applies=recorded)
    put("enoki.record.dropped_frac",
        ratio(counts.get("enoki.record.dropped", 0), counts.get("enoki.record.entries", 0)),
        applies=recorded)
    put("enoki.record.drain_ns_per_entry",
        [ratio(t.self_ns("enoki_write.drain"), t.rep["counts"].get("enoki.record.drained", 0))
         for t in traced], applies=recorded)
    put("enoki.checkpoint.saves", counts.get("enoki.checkpoint.saves", 0), applies=recorded)
    put("enoki.checkpoint.host_us_per_save",
        [ratio(t.inclusive_ns("enoki_write.checkpoint") / 1e3,
               t.rep["counts"].get("enoki.checkpoint.saves", 0)) for t in traced],
        applies=recorded)
    put("enoki.upgrade.ok_frac",
        ratio(counts.get("enoki.upgrade.ok", 0), counts.get("enoki.upgrade.calls", 0)),
        applies=recorded)
    put("enoki.upgrade.host_us",
        [ratio(t.inclusive_ns("enoki_write.upgrade") / 1e3, t.agg("enoki_write.upgrade")[0])
         for t in traced], applies=recorded)
    put("enoki.upgrade.sim_pause_us",
        ratio(counts.get("enoki.upgrade.sim_pause_ns", 0) / 1e3, counts.get("enoki.upgrade.ok", 0)),
        applies=recorded)

    # sched policy module behind EnokiSched
    put("sched.self_ns_per_event", [ratio(t.layer("sched")[1], events) for t in traced],
        applies=single_loop)
    for cb in SCHED_CBS:
        key = "sched." + cb
        put(key + ".calls", [t.agg(key)[0] for t in traced], applies=single_loop)
        put(key + ".ns_per_call", [ratio(t.self_ns(key), t.agg(key)[0]) for t in traced],
            applies=single_loop)
    put("sched.balance_pull_frac",
        [ratio(counts.get("sched.balance_offers", 0), t.agg("sched.balance")[0]) for t in traced],
        applies=single_loop)
    put("sched.pick_empty_frac",
        [ratio(t.rep["counts"].get("sched.empty_picks", 0), t.agg("sched.pick")[0])
         for t in traced], applies=single_loop)

    # sharded event loop
    sharded = not single_loop
    epochs = counts.get("sharded.epochs", 0)
    put("sharded.barrier_ns_per_epoch",
        [ratio(r["counts"].get("sharded.barrier_ns", 0), epochs) for r in plain], applies=sharded)
    put("sharded.commit_ns_per_epoch",
        [ratio(r["counts"].get("sharded.commit_ns", 0), epochs) for r in plain], applies=sharded)
    put("sharded.epochs", epochs, applies=sharded)
    put("sharded.idle_leap_frac", ratio(counts.get("sharded.idle_leaps", 0), epochs),
        applies=sharded)
    put("sharded.commit_msgs", counts.get("sharded.commit_msgs", 0), applies=sharded)
    put("sharded.batched_frac",
        ratio(counts.get("sharded.batched_msgs", 0), counts.get("sharded.commit_msgs", 0)),
        applies=sharded)
    put("sharded.widens", counts.get("sharded.widens", 0), applies=sharded)
    put("sharded.narrows", counts.get("sharded.narrows", 0), applies=sharded)
    flat = [r["run_s"] for r in reps if r["mode"] == "flat"]
    put("sharded.speedup_vs_flat", ratio(median(flat), run_plain), applies=sharded)

    # base: slab, arena, heap
    put("base.allocs_per_kevent", [ratio(r["counts"]["base.allocs"] * 1e3, events) for r in plain])
    put("base.event_slabs", counts["base.event_slabs"])
    put("base.arena_chunks", counts["base.arena_chunks"])

    # fault containment
    put("fault.watchdog_trips", counts.get("fault.watchdog_trips", 0), applies=recorded)
    put("fault.probation_commits", counts.get("fault.probation_commits", 0), applies=recorded)

    # tracing itself
    put("trace.overhead_frac", ratio(median([t.rep["run_s"] for t in traced]), run_plain) - 1.0,
        applies=single_loop)
    return m, na


def closure_error(result):
    """Per traced repetition: (corrected layer self times + tracing
    overhead) / traced run_s - 1, where the overhead is measured against the
    untraced repetition run just before it."""
    errs = []
    reps = result["reps"]
    for prev, rep in zip(reps, reps[1:]):
        if rep["mode"] == "traced" and prev["mode"] == "plain":
            t = TracedRep(rep)
            overhead = t.wall_ns - prev["run_s"] * 1e9
            errs.append((t.corrected_total_ns() + overhead) / t.wall_ns - 1.0)
    return errs


# ---- Modes ---------------------------------------------------------------------------


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        log("perfbench: BENCHMARK.json not found at", ROOT)
        sys.exit(1)
    return json.loads(path.read_text())


def bench(args):
    spec = load_spec()
    binary = build("perfbench_runner")
    result = run_runner(binary, args.workload, args.seed, args.seconds, args.trace)
    failed, golden = check_reps(args.workload, args.seed, result["reps"], load_goldens())
    host = dict(result["host"], seed=args.seed, workload=args.workload, golden=golden)
    print(json.dumps({"host": host}))
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, na = per_layer(args.workload, result, units)
        print(json.dumps({"not_applicable": na}))
        errs = closure_error(result)
        if errs:
            print(json.dumps({"trace_closure_error": median(errs)}))
        wanted = units
    else:
        metrics = end_to_end(result)
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(wanted) - set(metrics)
    if missing:
        log("perfbench: metrics not produced:", sorted(missing))
        sys.exit(1)
    out = {
        "correct": failed == 0,
        "attempted": len(result["reps"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in wanted},
    }
    print(json.dumps(out))


def run_all(args):
    binary = build("perfbench_runner")
    goldens = load_goldens()
    for w in WORKLOADS:
        result = run_runner(binary, w, args.seed, args.seconds, False)
        failed, golden = check_reps(w, args.seed, result["reps"], goldens)
        row = "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in end_to_end(result).items())
        print(f"{w:24s} {row}  failed={failed}/{len(result['reps'])} golden={golden}")


def write_goldens(args):
    binary = build("perfbench_runner")
    goldens = {}
    for w in WORKLOADS:
        seeds = GOLDEN_SEEDS + [HELD_OUT_SEED[w]] if w in SEEDED else [0]
        goldens[w] = {}
        for seed in seeds:
            result = run_runner(binary, w, seed, 0, False, min_reps=1)
            outs = {r["outputs"] for r in result["reps"]}
            if len(outs) != 1 or not sane(w, next(iter(outs))):
                log(f"perfbench: {w} seed {seed} is not deterministic or fails its invariants")
                sys.exit(1)
            goldens[w][golden_key(w, seed)] = outs.pop()
            log(w, seed, "ok")
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def self_test(args):
    """The benchmark's own tests, each on short runs of the runner."""
    runner = build("perfbench_runner")
    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"[{'  PASSED  ' if ok else '  FAILED  '}] {name}: {detail}", flush=True)

    # A decorated stack makes the decisions a bare one makes: traced and
    # untraced repetitions of a short run give byte-identical outputs.
    for w in ["pipe_wfq", "dispersive_shinjuku", "schbench_wfq_recorded"]:
        result = run_runner(runner, w, 0, 0, True, scale=0.05, min_reps=1)
        failed, _ = check_reps(w, 0, result["reps"], {})
        spans = sum(v[0] for r in result["reps"] if r["mode"] == "traced"
                    for v in r["spans"].values())
        report(f"decorators_transparent/{w}", failed == 0 and spans > 0,
               f"{len(result['reps'])} repetitions, {failed} differing, {spans:.0f} spans")

    # Layer self times (corrected for the calibrated span cost) plus the
    # measured tracing overhead add up to the traced run_s. The limit is
    # wide because each traced/untraced pair is subject to the host's noise;
    # a span counted twice or lost shows as an error of 30% or more.
    for w in ["pipe_wfq", "dispersive_shinjuku", "schbench_wfq_recorded"]:
        result = run_runner(runner, w, 0, 8, True, scale=0.25, min_reps=3)
        errs = closure_error(result)
        err = median(errs)
        report(f"self_times_add_up/{w}", abs(err) <= 0.15,
               f"sum of layer self times + tracing overhead is {err:+.1%} off the traced "
               f"run_s (median of {len(errs)} pairs, limit 15%)")

    # The recorded workload discards what it drains, so memory does not
    # grow with the simulated length.
    w = "schbench_wfq_recorded"
    rss = {s: run_runner(runner, w, 0, 0, False, scale=s, min_reps=1)["peak_rss_mb"]
           for s in (1.0, 2.0)}
    growth = rss[2.0] / rss[1.0] - 1.0
    report(f"rss_flat/{w}", growth <= 0.05,
           f"peak_rss_mb {rss[1.0]:.1f} -> {rss[2.0]:.1f} when the simulated length doubles "
           f"({growth:+.1%}, limit +5%)")
    sys.exit(1 if failures else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test(args)
    elif args.write_goldens:
        write_goldens(args)
    elif args.all:
        run_all(args)
    elif args.workload:
        bench(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
