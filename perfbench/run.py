#!/usr/bin/env python3
"""wcle benchmark: builds wcle_perfbench from this checkout's sources, runs
one pinned workload, checks every simulated output against expected.json and
prints metrics by name with their units. See perfbench/README.md.

Run from the root of the checkout:

  python3 perfbench/run.py --workload elect-expander-256 --seed 1 \\
      --seconds 20 --trace 0        # one run; last stdout line is the result
  python3 perfbench/run.py --check  # first seed / cell of every workload
  python3 perfbench/run.py --report --repeats 5 [--workload W] [--trace 1]
                                    # median and quartiles of every metric
  python3 perfbench/run.py --record # rewrite expected.json (outputs changed
                                    # on purpose only)

--trace 0 prints the end-to-end metrics (host time only); --trace 1 runs the
same workload with spans around every call into a library layer plus a sim
probe, and prints the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "wcle_perfbench"
EXPECTED = HERE / "expected.json"
CHILD_TIMEOUT_S = 170

# The e14 scale-1 fault grid, pinned as a literal so editing the builtin
# experiment cannot change the workload: 7 algorithms x crash x linkfail x
# adversary on the n=128 expander = 126 cells, 378 runs.
E14_GRID = ("algo=election,explicit_election,flood_max,candidate_flood,"
            "territory_election,known_tmix,estimate_then_elect "
            "family=expander n=128 crash=0,0.1,0.3 linkfail=0,0.05 "
            "adversary=random,degree,contenders trials=3 max-length=256 "
            "max-rounds=4000 reliable=1")

# Inputs are fixed lists with recorded outputs; --seed only chooses the
# order of the election seeds. Every cycle sets up once and then times each
# input once; a run has at least `min_cycles` cycles.
WORKLOADS = {
    "elect-expander-256": {
        "kind": "elect", "family": "expander", "n": 256, "graph_seed": 1,
        "algo": "election", "seeds": list(range(1, 121)), "min_cycles": 3,
    },
    "elect-expander-65536": {
        "kind": "elect", "family": "expander", "n": 65536, "graph_seed": 1,
        "algo": "election", "seeds": [2, 3], "min_cycles": 3,
    },
    "sweep-e14-faults": {"kind": "sweep", "spec": E14_GRID, "min_cycles": 3},
}

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit
    ("graph.build_ms", "ms"), ("graph.memory_mb", "MB"),
    ("sim.send_ns", "ns"), ("sim.drain_ns_per_msg", "ns/msg"),
    ("sim.est_share", "fraction"), ("sim.congest_msgs", "count"),
    ("sim.logical_msgs", "count"), ("sim.rounds", "count"),
    ("sim.max_edge_backlog", "count"), ("sim.pool_msg_slots", "count"),
    ("sim.pool_id_blocks", "count"), ("rw.walk_token_msgs", "count"),
    ("rw.reply_up_msgs", "count"), ("rw.flood_down_msgs", "count"),
    ("rw.unicast_up_msgs", "count"), ("rw.msg_share", "fraction"),
    ("core.run_ms", "ms"), ("core.ns_per_msg", "ns/msg"),
    ("core.phases", "count"), ("core.contenders", "count"),
    ("core.final_length", "count"), ("fault.crash_dropped", "count"),
    ("fault.link_dropped", "count"), ("fault.delivered_frac", "fraction"),
    ("api.expand_ms", "ms"), ("api.sink_ms", "ms"), ("api.sink_bytes", "B"),
    ("trace.write_ms", "ms"), ("trace.bytes", "B"), ("trace.runs", "count"),
    ("trace.write_share", "fraction"), ("bench.span_overhead_frac", "fraction"),
]

# Layers a workload does not exercise, or that its public surface does not
# expose; reported as 0 and named in the output.
UNMEASURED = {
    "elect": {
        "api.expand_ms": "elections do not expand a sweep grid",
        "api.sink_ms": "elections write no sink",
        "api.sink_bytes": "elections write no sink",
        "trace.write_ms": "elections record no trace",
        "trace.bytes": "elections record no trace",
        "trace.runs": "elections record no trace",
        "trace.write_share": "elections record no trace",
    },
    "sweep": {
        "sim.max_edge_backlog": "TrialStats carries no backlog",
        "rw.walk_token_msgs": "TrialStats carries no per-tag counts",
        "rw.reply_up_msgs": "TrialStats carries no per-tag counts",
        "rw.flood_down_msgs": "TrialStats carries no per-tag counts",
        "rw.unicast_up_msgs": "TrialStats carries no per-tag counts",
        "rw.msg_share": "TrialStats carries no per-tag counts",
    },
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds the optimized benchmark binary."""
    if not (ROOT / "src" / "wcle").is_dir():
        raise BenchError(f"no wcle sources under {ROOT}/src/wcle; run from "
                         "the root of a wcle checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_tool(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_tool(["cmake", "--build", str(BUILD), "-j", jobs])


def run_tool(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=840)
    if proc.returncode != 0:
        log(proc.stdout)
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def environment():
    env = {"num_cpus": os.cpu_count()}
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() if proc.returncode == 0 else None
    env["git_rev"] = rev or "none"
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    env["source_sha256"] = h.hexdigest()[:16]
    return env


# ---------------------------------------------------------------- execute

def program_args(name, order, seconds=0, cycles=1, spans=None,
                 first_cell=False):
    """Command line for one workload: at least `cycles` cycles, then until
    `seconds` have passed; spans (and traced cycles) when `spans` is set."""
    w = WORKLOADS[name]
    if w["kind"] == "elect":
        args = ["elect", "--family", w["family"], "--n", str(w["n"]),
                "--graph-seed", str(w["graph_seed"]), "--algo", w["algo"],
                "--seeds", ",".join(map(str, order)),
                "--warmup-seed", str(w["seeds"][0])]
    else:
        args = ["sweep", "--spec", w["spec"]]
        if first_cell:
            args.append("--first-cell")
    args += ["--seconds", str(seconds), "--min-cycles", str(cycles)]
    if spans:
        args += ["--traced", "--spans", str(spans)]
    return args


def execute(args):
    """Runs the benchmark binary to completion; returns its records."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("wcle_perfbench timed out")
    if proc.returncode != 0:
        raise BenchError(f"wcle_perfbench exited {proc.returncode}: "
                         f"{err.strip()}")
    records = [json.loads(line) for line in out.splitlines() if line.strip()]
    env = records[0]
    if env.get("ev") != "env" or not env.get("ndebug") or \
            env.get("build_type") != "Release":
        raise BenchError(f"refusing to time this build: {env}")
    return records


def seed_order(name, seed):
    seeds = list(WORKLOADS[name].get("seeds", []))
    random.Random(seed).shuffle(seeds)
    return seeds


# ----------------------------------------------------------------- checks

def check_runs(name, records, expected):
    """Counts attempted / failed runs; prints every mismatch."""
    exp = expected[name]
    attempted = failed = 0
    for r in records:
        ev = r["ev"]
        if ev == "run":
            attempted += 1
            if "error" in r:
                failed += 1
                log(f"FAIL {name} seed {r['seed']}: threw {r['error']}")
                continue
            want = exp["runs"].get(str(r["seed"]))
            got = {k: r[k] for k in ("leaders", "congest", "rounds")}
            if want != got:
                failed += 1
                log(f"FAIL {name} seed {r['seed']}: got {got}, "
                    f"recorded {want}")
        elif ev in ("grid", "setup") and WORKLOADS[name]["kind"] == "sweep":
            a, f = check_sweep_record(name, r, exp)
            attempted += a
            failed += f
    return attempted, failed


def check_sweep_record(name, r, exp):
    cells = exp["cells"]
    trials = exp["trials"]
    if r["ev"] == "setup":  # the warm-up: cell 0 alone, JSONL only
        if r.get("jsonl") != cells[0]["jsonl"]:
            log(f"FAIL {name} cell 0 ({cells[0]['key']}): "
                f"{r.get('error', 'JSONL line differs')}")
            return trials, trials
        return trials, 0
    total = trials * len(cells)
    if "error" in r:
        log(f"FAIL {name} grid in cycle {r['cycle']}: threw {r['error']}")
        return total, total
    failed = 0
    for i, want in enumerate(cells):
        got = r["cells"][i] if i < len(r["cells"]) else {}
        bad = [k for k in ("jsonl", "trace") if got.get(k) != want[k]]
        if bad:
            failed += trials
            log(f"FAIL {name} cell {i} ({want['key']}): {'/'.join(bad)} "
                "bytes differ")
    if failed == 0 and (r["jsonl_digest"] != exp["jsonl_digest"] or
                        r["trace_digest"] != exp["trace_digest"] or
                        len(r["cells"]) != len(cells)):
        log(f"FAIL {name} grid in cycle {r['cycle']}: whole-output digest "
            "differs")
        failed = total
    return total, failed


# ---------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def fast_quartile(xs):
    """The ceil(k/4)-th fastest of k samples: the minimum of up to 4, the
    2nd fastest of 5 to 8. The host's noise only ever adds time, in
    stretches of seconds, so this tracks the code's own speed where a
    median of 3 samples follows any stretch that covers two of them."""
    return sorted(xs)[(len(xs) - 1) // 4]


def item_times(pairs):
    """(item, ms) samples -> each item's fast quartile."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {k: fast_quartile(v) for k, v in groups.items()}


def end_to_end(name, records):
    kind = WORKLOADS[name]["kind"]
    setups = [r["s"] for r in records if r["ev"] == "setup"]
    rss = next(r["peak_kb"] for r in records if r["ev"] == "rss") / 1024
    # Each input's time across cycles (fast_quartile); one input is an
    # election or a sweep cell of `runs_per_item` runs.
    if kind == "elect":
        timed = [(r["seed"], r["ms"]) for r in records
                 if r["ev"] == "run" and not r["warmup"] and "ms" in r]
        runs_per_item = 1
    else:
        grids = [r for r in records if r["ev"] == "grid" and "error" not in r]
        timed = [(i, c["ms"]) for g in grids for i, c in enumerate(g["cells"])]
        runs_per_item = (grids[0]["trace_runs"] / len(grids[0]["cells"])
                         if grids else 1)
    items = sorted(item_times(timed).values())
    if not items or not setups:
        raise BenchError(f"{name}: no successful timed runs")
    # The typical pass, assembled input by input: one pass over the whole
    # input list at each input's time.
    pass_ms = sum(items)
    per_item = f"{len(items)} items x {len(timed) / len(items):g} cycles"
    return {
        "setup_s": (median(setups), f"{len(setups)} set-ups"),
        "runs_per_s": (1000.0 * runs_per_item * len(items) / pass_ms,
                       per_item),
        "item_ms_p50": (median(items), per_item),
        "item_ms_p90": (p90(items), per_item),
        "peak_rss_mb": (rss, "1 process"),
    }


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def dur_ms(s):
    return (s["end"] - s["start"]) / 1e6


def per_layer(name, records, spans):
    kind = WORKLOADS[name]["kind"]
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    v = {}
    graphs = by.get("graph.make_family", [])
    v["graph.build_ms"] = median([dur_ms(s) for s in graphs])
    v["graph.memory_mb"] = max([s["n"] for s in graphs], default=0) / 2**20
    probe = next(r for r in records if r["ev"] == "probe")["waves"]
    v["sim.send_ns"] = median([w["send_ns"] / w["sends"] for w in probe])
    drain = median([w["drain_ns"] / w["msgs"] for w in probe])
    v["sim.drain_ns_per_msg"] = drain

    if kind == "elect":
        runs = [r for r in records
                if r["ev"] == "run" and not r["warmup"] and "ms" in r]
        one_cycle = [r for r in runs if r["cycle"] == 0]
        med = lambda key: median([r[key] for r in runs])
        v["sim.est_share"] = median([drain * r["congest"] / (r["ms"] * 1e6)
                                     for r in runs])
        v["sim.congest_msgs"] = med("congest")
        v["sim.logical_msgs"] = med("logical")
        v["sim.rounds"] = med("rounds")
        v["sim.max_edge_backlog"] = med("backlog")
        v["sim.pool_msg_slots"] = med("pool_msg_slots")
        v["sim.pool_id_blocks"] = med("pool_id_blocks")
        for i, key in enumerate(("rw.walk_token_msgs", "rw.reply_up_msgs",
                                 "rw.flood_down_msgs", "rw.unicast_up_msgs")):
            v[key] = median([r["walk_tags"][i] for r in runs])
        v["rw.msg_share"] = median([sum(r["walk_tags"]) / r["congest"]
                                    for r in runs])
        v["core.run_ms"] = median([dur_ms(s) for s in by.get("core.run", [])])
        v["core.ns_per_msg"] = median([r["ms"] * 1e6 / r["congest"]
                                       for r in runs])
        for key in ("phases", "contenders", "final_length"):
            v["core." + key] = med(key)
        lost = sum(r["crash_dropped"] + r["link_dropped"] + r["dropped"]
                   for r in one_cycle)
        sent = sum(r["logical"] + r["crash_dropped"] for r in one_cycle)
        v["fault.crash_dropped"] = sum(r["crash_dropped"] for r in one_cycle)
        v["fault.link_dropped"] = sum(r["link_dropped"] for r in one_cycle)
        v["fault.delivered_frac"] = 1 - lost / sent if sent else 0.0
        keyed = [(r["seed"], r["traced"], r["ms"]) for r in runs]
    else:
        grids = [r for r in records if r["ev"] == "grid" and "error" not in r]
        cells = next(r for r in records if r["ev"] == "cells")["cells"]
        traced = [g for g in grids if g["traced"]]
        children = sorted(by.get("api.sink", []) + by.get("trace.write", []),
                          key=lambda s: s["start"])
        exec_ns = {}  # cell -> cell time minus its sink / trace-writer spans
        for g in traced:
            for i, c in enumerate(g["cells"]):
                lo, hi = c["start"], c["start"] + c["ms"] * 1e6
                inner = sum(max(0, min(s["end"], hi) - max(s["start"], lo))
                            for s in children)
                exec_ns.setdefault(i, []).append(c["ms"] * 1e6 - inner)
        exec_ns = {i: statistics.median(x) for i, x in exec_ns.items()}
        cmed = lambda key: median([c[key] for c in cells])
        v["sim.est_share"] = median([drain * cells[i]["congest_sum"] / ns
                                     for i, ns in exec_ns.items() if ns > 0])
        v["sim.congest_msgs"] = cmed("congest")
        v["sim.logical_msgs"] = cmed("logical")
        v["sim.rounds"] = cmed("rounds")
        v["sim.pool_msg_slots"] = cmed("pool_msg_slots")
        v["sim.pool_id_blocks"] = cmed("pool_id_blocks")
        v["core.run_ms"] = median([ns / 1e6 / cells[i]["trials"]
                                   for i, ns in exec_ns.items()])
        v["core.ns_per_msg"] = median([ns / cells[i]["congest_sum"]
                                       for i, ns in exec_ns.items()
                                       if cells[i]["congest_sum"] > 0])
        elections = [c for c in cells if c["algorithm"] == "election"]
        for key in ("phases", "contenders", "final_length"):
            v["core." + key] = median([c[key] for c in elections])
        lost = sum(c["crash_dropped"] + c["link_dropped"] + c["dropped"]
                   for c in cells)
        sent = sum(c["logical_sum"] + c["crash_dropped"] for c in cells)
        v["fault.crash_dropped"] = sum(c["crash_dropped"] for c in cells)
        v["fault.link_dropped"] = sum(c["link_dropped"] for c in cells)
        v["fault.delivered_frac"] = 1 - lost / sent if sent else 0.0
        v["api.expand_ms"] = median([dur_ms(s)
                                     for s in by.get("api.expand", [])])
        sweeps = [i for i, s in enumerate(spans)
                  if s["name"] == "api.run_sweep"]
        per_sweep = lambda child: median([
            sum(dur_ms(s) for s in by.get(child, []) if s["parent"] == i)
            for i in sweeps])
        v["api.sink_ms"] = per_sweep("api.sink")
        v["api.sink_bytes"] = median([g["jsonl_bytes"] for g in grids])
        v["trace.write_ms"] = per_sweep("trace.write")
        v["trace.bytes"] = median([g["trace_bytes"] for g in grids])
        v["trace.runs"] = median([g["trace_runs"] for g in grids])
        v["trace.write_share"] = (v["trace.write_ms"] /
                                  median([g["ms"] for g in traced])
                                  if traced else 0.0)
        keyed = [(i, g["traced"], c["ms"]) for g in grids
                 for i, c in enumerate(g["cells"])]
    # Span overhead: per input, traced median over untraced median.
    plain = item_times((k, ms) for k, t, ms in keyed if not t)
    spanned = item_times((k, ms) for k, t, ms in keyed if t)
    ratios = [spanned[k] / plain[k] for k in spanned if plain.get(k)]
    v["bench.span_overhead_frac"] = median(ratios) - 1 if ratios else 0.0
    for key in UNMEASURED[kind]:
        v[key] = 0.0
    return v


# ------------------------------------------------------------------ modes

def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result dict, env dict)."""
    w = WORKLOADS[name]
    # Raw samples and spans stay behind for inspection.
    stem = ROOT / ".bench_build" / "runs" / f"{name}-seed{seed}-trace{trace}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    spans = stem.with_suffix(".spans.jsonl") if trace else None
    # A traced run needs an untraced and a traced cycle at least.
    cycles = max(w["min_cycles"], 2 * trace)
    records = execute(program_args(name, seed_order(name, seed), seconds,
                                   cycles, spans))
    stem.with_suffix(".records.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records))
    expected = json.loads(EXPECTED.read_text())
    attempted, failed = check_runs(name, records, expected)
    metrics = {}
    if trace == 0:
        for key, (value, count) in end_to_end(name, records).items():
            metrics[key] = value
            log(f"  {name} {key:<12} = {value:.6g} "
                f"{dict(END_TO_END)[key]} (samples: {count})")
    else:
        layer = per_layer(name, records, read_spans(spans))
        for key, unit in PER_LAYER:
            metrics[key] = layer[key]
            note = UNMEASURED[w["kind"]].get(key)
            log(f"  {name} {key:<25} = {layer[key]:.6g} {unit}" +
                (f"  (not measured: {note})" if note else ""))
    units = dict(END_TO_END + PER_LAYER)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    env = dict(records[0])
    del env["ev"]
    return result, env


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def report(names, repeats, seconds, trace):
    rows = {}
    for name in names:
        for seed in range(1, repeats + 1):
            result, _ = run_workload(name, seed, seconds, trace)
            if not result["correct"]:
                log(f"  {name} seed {seed}: {result['failed']} of "
                    f"{result['attempted']} runs failed")
            for key, m in result["metrics"].items():
                rows.setdefault((name, key), []).append(m["value"])
    print(f"{'workload':<22} {'metric':<26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8}  n")
    for (name, key), xs in rows.items():
        q1, q2, q3 = quartiles(xs)
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(f"{name:<22} {key:<26} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f}  {len(xs)}")


def check_only():
    """Runs the first seed or cell of every workload against expected.json."""
    expected = json.loads(EXPECTED.read_text())
    attempted = failed = 0
    for name, w in WORKLOADS.items():
        if w["kind"] == "elect":  # its warm-up run is the same seed
            args = program_args(name, w["seeds"][:1])
        else:
            args = program_args(name, [], first_cell=True)
        a, f = check_runs(name, execute(args), expected)
        log(f"  {name}: {a - f}/{a} runs match the recorded outputs")
        attempted += a
        failed += f
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": {}}


def record():
    """Writes expected.json from one pass over every workload's inputs."""
    out = {}
    for name, w in WORKLOADS.items():
        if w["kind"] == "elect":
            recs = execute(program_args(name, w["seeds"]))
            out[name] = {"runs": {
                str(r["seed"]): {k: r[k] for k in ("leaders", "congest",
                                                   "rounds")}
                for r in recs if r["ev"] == "run"}}
        else:
            recs = execute(program_args(name, []))
            grid = next(r for r in recs if r["ev"] == "grid")
            stats = next(r for r in recs if r["ev"] == "cells")["cells"]
            out[name] = {
                "trials": stats[0]["trials"],
                "jsonl_digest": grid["jsonl_digest"],
                "trace_digest": grid["trace_digest"],
                "cells": [{"key": s["key"], "jsonl": c["jsonl"],
                           "trace": c["trace"]}
                          for s, c in zip(stats, grid["cells"])],
            }
        log(f"  recorded {name}")
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    try:
        build()
        env = environment()
        if args.check:
            result = check_only()
        elif args.record:
            record()
            return 0
        elif args.report:
            report(args.workload or list(WORKLOADS), args.repeats,
                   args.seconds, args.trace)
            return 0
        else:
            if not args.workload or len(args.workload) != 1:
                raise BenchError("give exactly one --workload")
            result, program_env = run_workload(args.workload[0], args.seed,
                                               args.seconds, args.trace)
            env.update(program_env)
        print(json.dumps({"env": env}))
        print(json.dumps(result))
        return 0 if args.check is False or result["correct"] else 1
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
