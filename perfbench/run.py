#!/usr/bin/env python3
"""End-to-end benchmark of the rcache-sim CLI (see perfbench/README.md).

    python3 perfbench/run.py --workload fig4_sweep --seed 1 \\
        --seconds 20 --trace 0

Builds rcache-sim and the layer probe in Release (perfbench/
CMakeLists.txt) under .bench_build/, makes the workload's inputs from
--seed, and then:

  --trace 0  times repeated `rcache-sim` invocations (--jobs 2) for
             --seconds, checks every invocation's outputs byte for byte
             against a --jobs 1 reference run, and reports the
             end-to-end metrics as medians;
  --trace 1  runs the workload untraced, once more with the CLI's
             --trace-events/--events sidecars, and through the layer
             probe, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted,
failed, metrics. Every run also writes a record with the machine
fingerprint to .bench_build/perfbench/records/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import tracegen  # noqa: E402

OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD = os.path.join(OUT, "cmake")
SIM = os.path.join(BUILD, "rcache", "rcache-sim")
PROBE = os.path.join(BUILD, "perfbench-probe")

# Worker threads of every timed invocation (the machine this was tuned
# on has 4 vCPUs; two leave room for this script and the OS).
JOBS = 2
# A timed run takes at least this many invocations, however short
# --seconds is, so its median is never a single sample.
MIN_SAMPLES = 3
# Set-up is a few milliseconds, so its median needs many samples,
# spread over the whole run rather than taken in one burst: this many
# before the first timed invocation and after each one.
SETUP_REPS = 8
# Untraced invocations whose median the traced run is compared with.
TRACE_BASELINE_REPS = 3
# A shard index no cell has: the CLI parses, preflights and plans the
# whole scenario, then simulates nothing.
EMPTY_SHARD = "99999/100000"
TRACE_RECORDS = 100000

WORKLOADS = {
    "fig4_sweep": {"command": "sweep", "cells": 192,
                   "scenario": "perfbench/scenarios/fig4_sweep.scn"},
    "trace_policy_sweep": {"command": "sweep", "cells": 8,
                           "scenario": None},
    "fig4_tune": {"command": "tune", "cells": 192,
                  "scenario": "perfbench/scenarios/fig4_tune.scn"},
}

POLICIES = ("lru", "fifo", "slru", "wtlfu")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ------------------------------------------------------------ build


def read_cmake_cache():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.rstrip("\n").split("=", 1)
            cache[key.split(":", 1)[0]] = value
    return cache


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from a full checkout of the "
                 "repository" % needed)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "rcache-sim", "perfbench-probe"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("build failed; see %s" % log_path)
    cache = read_cmake_cache()
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE",
        "CMAKE_EXE_LINKER_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        fail("refusing to time a %r build (need Release)"
             % cache.get("CMAKE_BUILD_TYPE"))
    if cache.get("RCACHE_SANITIZE") or "-fsanitize" in flags:
        fail("refusing to time a sanitizer build")
    return cache


def fingerprint(cache):
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        compiler = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            check=True).stdout.splitlines()[0]
    except (OSError, subprocess.CalledProcessError, IndexError):
        pass
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    # Identifies the code in a checkout that is not a git repository.
    tree = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(
                os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                tree.update(os.path.relpath(path, ROOT).encode())
                tree.update(sha256_file(path).encode())
        if os.path.isfile(os.path.join(ROOT, top)):
            tree.update(sha256_file(os.path.join(ROOT, top)).encode())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "sanitize": cache.get("RCACHE_SANITIZE", ""),
        "git_commit": commit,
        "source_sha256": tree.hexdigest(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


# ----------------------------------------------------------- inputs


def make_inputs(workload, seed):
    """The workload's scenario path (relative to the checkout) and the
    generated input files it reads (empty when the seed varies
    nothing). The trace workload's trace is generated once per seed
    and cached."""
    spec = WORKLOADS[workload]
    if spec["scenario"]:
        # The synthetic profiles are a fixed table: the seed cannot
        # vary these inputs.
        return spec["scenario"], []
    data = os.path.join(OUT, "data", "seed-%d" % seed)
    trace = os.path.join(data, "trace.trace.gz")
    scenario = os.path.join(data, "trace_policy_sweep.scn")
    if not os.path.exists(scenario):
        os.makedirs(data, exist_ok=True)
        tracegen.generate(trace + ".tmp", seed, TRACE_RECORDS)
        os.replace(trace + ".tmp", trace)
        with open(os.path.join(
                HERE, "scenarios", "trace_policy_sweep.scn.in")) as f:
            text = f.read().replace(
                "@TRACE@", os.path.relpath(trace, ROOT)).replace(
                "@RECORDS@", str(TRACE_RECORDS))
        with open(scenario + ".tmp", "w") as f:
            f.write(text)
        os.replace(scenario + ".tmp", scenario)
    return os.path.relpath(scenario, ROOT), [trace]


def invocation(workload, scenario, outdir, jobs):
    """The CLI command for one run of @p workload, and the output
    files it writes (name -> path)."""
    if WORKLOADS[workload]["command"] == "tune":
        outs = {"winner.csv": os.path.join(outdir, "winner.csv"),
                "decisions.jsonl": os.path.join(outdir, "decisions.jsonl")}
        cmd = [SIM, "tune", "--scenario", scenario, "--jobs", str(jobs),
               "--out", outs["winner.csv"],
               "--log", outs["decisions.jsonl"]]
    else:
        outs = {"sweep.csv": os.path.join(outdir, "sweep.csv")}
        cmd = [SIM, "sweep", "--scenario", scenario, "--jobs", str(jobs),
               "--out", outs["sweep.csv"]]
    return cmd, outs


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def execute(cmd, stderr_path):
    """Run @p cmd from the checkout root; host wall, user+sys CPU and
    peak RSS of that one process."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    # Reaped here; tell the Popen object so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def read_outputs(outs):
    files = {}
    for name, path in outs.items():
        try:
            with open(path, "rb") as f:
                files[name] = f.read()
        except OSError:
            files[name] = None
    return files


def csv_rows(data):
    lines = data.decode().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def structure_errors(workload, files):
    """Grid checks on a reference run's outputs: one row per cell in
    cell order (one winner row for tune), every row as wide as the
    header."""
    cells = WORKLOADS[workload]["cells"]
    csv_name = "sweep.csv" if "sweep.csv" in files else "winner.csv"
    if any(v is None for v in files.values()):
        return ["an output file is missing"]
    header, rows = csv_rows(files[csv_name])
    errors = []
    for col in ("cell", "baseline_edp", "best_edp"):
        if col not in header:
            errors.append("%s has no %s column" % (csv_name, col))
    if any(len(r) != len(header) for r in rows):
        errors.append("%s rows differ in width from its header"
                      % csv_name)
    if errors:
        return errors
    got = [int(r[header.index("cell")]) for r in rows]
    if csv_name == "sweep.csv" and got != list(range(cells)):
        errors.append("sweep.csv has cells %s..., want 0..%d"
                      % (got[:3], cells - 1))
    if csv_name == "winner.csv":
        log = [json.loads(line) for line in
               files["decisions.jsonl"].decode().splitlines()]
        if len(rows) != 1 or log[0].get("cells") != cells:
            errors.append("tune did not search the %d-cell grid to one "
                          "winner" % cells)
        elif log[-1].get("event") != "winner" or \
                log[-1].get("cell") != got[0]:
            errors.append("decision log winner differs from winner.csv")
    return errors


def best_relative_ed(files):
    """Lowest best/baseline energy-delay among the reported cells (for
    tune: its winner's)."""
    data = files.get("sweep.csv") or files["winner.csv"]
    header, rows = csv_rows(data)
    best, base = header.index("best_edp"), header.index("baseline_edp")
    return min(float(r[best]) / float(r[base]) for r in rows)


def reference(workload, scenario, inputs):
    """The --jobs 1 outputs for this binary and input, cached."""
    key = hashlib.sha256()
    for path in [SIM, os.path.join(ROOT, scenario)] + inputs:
        key.update(sha256_file(path).encode())
    refdir = os.path.join(OUT, "ref", "%s-%s"
                          % (workload, key.hexdigest()[:16]))
    if not os.path.isdir(refdir):
        tmp = fresh_dir(refdir + ".tmp")
        cmd, outs = invocation(workload, scenario, tmp, 1)
        res = execute(cmd, os.path.join(tmp, "stderr.txt"))
        if res["rc"] != 0:
            fail("reference run exited %d: %s" % (res["rc"], cmd))
        errors = structure_errors(workload, read_outputs(outs))
        if errors:
            fail("reference run output is malformed: " + "; ".join(errors))
        os.replace(tmp, refdir)
    _, outs = invocation(workload, scenario, refdir, 1)
    return read_outputs(outs), refdir


def setup_walls(scenario):
    """Wall times of SETUP_REPS invocations that parse, preflight and
    plan the scenario but simulate no cell."""
    work = fresh_dir(os.path.join(OUT, "work", "setup"))
    out = os.path.join(work, "empty.csv")
    cmd = [SIM, "sweep", "--scenario", scenario, "--shard", EMPTY_SHARD,
           "--out", out]
    walls = []
    for _ in range(SETUP_REPS):
        res = execute(cmd, os.path.join(work, "stderr.txt"))
        with open(out, "rb") as f:
            rows = f.read().splitlines()
        if res["rc"] != 0 or len(rows) != 1:
            fail("set-up invocation failed: %s" % cmd)
        walls.append(res["wall_s"])
    return walls


def timed_invocation(workload, scenario, ref, extra=()):
    """One --jobs 2 invocation; its measurements and whether its
    outputs match the reference byte for byte."""
    work = fresh_dir(os.path.join(OUT, "work", workload))
    cmd, outs = invocation(workload, scenario, work, JOBS)
    res = execute(cmd + list(extra), os.path.join(work, "stderr.txt"))
    got = read_outputs(outs)
    res["ok"] = res["rc"] == 0 and got == ref
    if not res["ok"]:
        with open(os.path.join(work, "stderr.txt")) as f:
            tail = f.read()[-400:]
        print("perfbench: invocation failed the correctness gate "
              "(exit %d): %s" % (res["rc"], tail), file=sys.stderr)
    return res


# ---------------------------------------------------------- metrics


def timed_metrics(workload, scenario, ref, seconds):
    setups = setup_walls(scenario)
    samples, attempted, failed = [], 0, 0
    deadline = time.monotonic() + seconds
    while attempted < MIN_SAMPLES or time.monotonic() < deadline:
        res = timed_invocation(workload, scenario, ref)
        attempted += 1
        if res["ok"]:
            samples.append(res)
        else:
            failed += 1
        setups += setup_walls(scenario)
    # A run whose every invocation failed still reports its timings
    # (marked incorrect) rather than none.
    basis = samples or [res]
    cells = WORKLOADS[workload]["cells"]

    def med(key):
        return statistics.median(s[key] for s in basis)

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "cells_per_s": (statistics.median(
            cells / s["wall_s"] for s in basis), "cells/s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "winner_rel_ed": (best_relative_ed(ref), "ratio"),
    }
    counts = {name: len(basis) for name in metrics}
    counts["setup_s"] = len(setups)
    counts["winner_rel_ed"] = 1
    raw = {"invocations": samples, "setup_walls": setups}
    return metrics, counts, attempted, failed, raw


def ratio(num, den):
    """@p num / @p den, or 0 for a layer that did no work."""
    return num / den if den else 0.0


def runner_spans(path):
    """Busy/idle/tail seconds of the sweep runner's job spans."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"]
                  if e.get("ph") == "X"]
    if not events:
        return None
    start = min(e["ts"] for e in events)
    end = max(e["ts"] + e["dur"] for e in events)
    last_by_tid = {}
    for e in events:
        last_by_tid[e["tid"]] = max(last_by_tid.get(e["tid"], 0),
                                    e["ts"] + e["dur"])
    window = (end - start) / 1e6
    busy = sum(e["dur"] for e in events) / 1e6
    workers = max(JOBS, len(last_by_tid))
    return {"spans": len(events), "busy_s": busy,
            "idle_s": workers * window - busy,
            "parallel_efficiency": busy / (workers * window),
            "tail_s": (end - min(last_by_tid.values())) / 1e6}


def resize_moves(path):
    """Resize decisions in a --events file that changed the level."""
    moves = 0
    with open(path) as f:
        for line in f:
            ev = json.loads(line)
            moves += ev["from_level"] != ev["to_level"]
    return moves


def traced_metrics(workload, scenario, ref, refdir):
    untraced, attempted, failed = [], 0, 0
    for _ in range(TRACE_BASELINE_REPS):
        res = timed_invocation(workload, scenario, ref)
        attempted += 1
        failed += not res["ok"]
        untraced.append(res["wall_s"])
    wall = statistics.median(untraced)

    sweep = WORKLOADS[workload]["command"] == "sweep"
    sidecars = os.path.join(OUT, "work", "sidecars")
    fresh_dir(sidecars)
    spans_path = os.path.join(sidecars, "trace_events.json")
    events_path = os.path.join(sidecars, "events.jsonl")
    extra = ["--trace-events", spans_path, "--events", events_path] \
        if sweep else []
    traced = timed_invocation(workload, scenario, ref, extra)
    attempted += 1
    failed += not traced["ok"]

    probe_cmd = [PROBE, WORKLOADS[workload]["command"], scenario]
    if not sweep:
        probe_cmd.append(os.path.join(refdir, "decisions.jsonl"))
    proc = subprocess.run(probe_cmd, cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        fail("layer probe failed: " + proc.stderr.strip())
    p = json.loads(proc.stdout.splitlines()[-1])

    warnings = []
    runner = runner_spans(spans_path) if sweep else None
    if runner and runner["spans"] != p["jobs"]:
        warnings.append("probe ran %d jobs, the CLI %d"
                        % (p["jobs"], runner["spans"]))
    runner = runner or {"busy_s": 0.0, "idle_s": 0.0,
                        "parallel_efficiency": 0.0, "tail_s": 0.0}
    resize_events = resize_moves(events_path) if sweep \
        else p["resize_calls"]
    if resize_events != p["resize_calls"]:
        warnings.append("probe replayed %d resizes, the CLI logged %d"
                        % (p["resize_calls"], resize_events))

    cache_s = sum(p["access_ns"][pol] * n * 1e-9
                  for pol, n in p["accesses_by_policy"].items())
    # Differences of separately timed calls, reported as measured (a
    # small negative value means the parts outran the whole).
    core_self = (p["full_run_s"] - p["synth_s"] - p["trace_s"] - cache_s
                 - p["resize_s"] - p["energy_s"])
    search_self = 0.0 if sweep else (
        p["search_s"] - p["analytic_s"] - p["sampled_s"]
        - p["full_run_s"])
    m = {
        "workload.synth_gen_s": (p["synth_s"], "s"),
        "workload.synth_gen_minst_per_s": (
            ratio(p["synth_insts"], p["synth_s"]) / 1e6, "Minst/s"),
        "workload.streams_per_distinct": (
            ratio(p["streams"], p["distinct_streams"]), "ratio"),
        "workload.trace_decode_s": (p["trace_s"], "s"),
        "workload.trace_decode_mrec_per_s": (
            ratio(p["trace_records"], p["trace_s"]) / 1e6, "Mrec/s"),
        "cache.access_s": (cache_s, "s"),
    }
    for pol in POLICIES:
        m["cache.access_mops." + pol] = (1e3 / p["access_ns"][pol],
                                         "Mops/s")
    m.update({
        "cache.dl1_miss_ratio": (
            ratio(p["dl1_misses"], p["dl1_accesses"]), "ratio"),
        "cache.writebacks": (p["dl1_writebacks"], "count"),
        "core.resize_s": (p["resize_s"], "s"),
        "core.resize_events": (resize_events, "count"),
        "cpu.core_self_s": (core_self, "s"),
        "cpu.detailed_minst_per_s": (
            ratio(p["detailed_insts"], p["full_run_s"]) / 1e6, "Minst/s"),
        "energy.compute_s": (p["energy_s"], "s"),
        "energy.compute_calls": (p["energy_calls"], "count"),
        "analytic.pass_s": (p["analytic_s"], "s"),
        "analytic.geometries_priced": (p["geometries_priced"], "count"),
        "sim.sampled_s": (p["sampled_s"], "s"),
        "sim.sampled_detailed_insts": (p["sampled_insts"], "count"),
        "search.self_s": (search_self, "s"),
        "search.detailed_insts": (p["search_detailed_insts"], "count"),
        "search.detailed_ratio": (
            ratio(p["search_detailed_insts"], p["exhaustive_insts"]),
            "ratio"),
        "search.rounds": (p["rounds"], "count"),
        "scenario.plan_s": (p["plan_s"], "s"),
        "scenario.cells": (p["cells"], "count"),
        "scenario.runs_per_cell": (ratio(p["jobs"], p["cells"]), "ratio"),
        "runner.busy_s": (runner["busy_s"], "s"),
        "runner.idle_s": (runner["idle_s"], "s"),
        "runner.parallel_efficiency": (runner["parallel_efficiency"],
                                       "fraction"),
        "runner.tail_s": (runner["tail_s"], "s"),
    })
    # Each layer's single-threaded self time as a share of the
    # worker-seconds the untraced --jobs 2 invocation had.
    capacity = JOBS * wall
    layer_s = {
        "workload": p["synth_s"] + p["trace_s"],
        "cache": cache_s,
        "core": p["resize_s"],
        "cpu": core_self,
        "energy": p["energy_s"],
        "analytic": p["analytic_s"],
        "sim": p["sampled_s"],
        "search": search_self,
        "scenario": p["plan_s"],
    }
    for layer, sec in layer_s.items():
        m["share." + layer] = (sec / capacity, "fraction")
    m["share.unaccounted"] = (1 - sum(layer_s.values()) / capacity,
                              "fraction")
    m["trace.untraced_wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (traced["wall_s"] - wall, "s")
    counts = {name: 1 for name in m}
    counts["trace.untraced_wall_s"] = len(untraced)
    raw = {"probe": p, "untraced_walls": untraced,
           "traced_wall": traced["wall_s"], "warnings": warnings}
    for w in warnings:
        print("perfbench: warning: " + w, file=sys.stderr)
    return m, counts, attempted, failed, raw


# ------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be > 0 and --seed >= 0")

    cache = build()
    scenario, inputs = make_inputs(args.workload, args.seed)
    ref, refdir = reference(args.workload, scenario, inputs)
    if args.trace:
        metrics, counts, attempted, failed, raw = traced_metrics(
            args.workload, scenario, ref, refdir)
    else:
        metrics, counts, attempted, failed, raw = timed_metrics(
            args.workload, scenario, ref, args.seconds)

    print("%-34s %16s  %-9s %s" % ("metric", "median", "unit", "n"))
    for name, (value, unit) in metrics.items():
        print("%-34s %16.6g  %-9s %d" % (name, value, unit, counts[name]))
    print("%-34s %16.6g  %-9s %d" % ("failed_ratio", failed / attempted,
                                     "fraction", attempted))

    record = {
        "workload": args.workload, "seed": args.seed,
        "seed_varies_inputs": bool(inputs), "seconds": args.seconds,
        "trace": args.trace, "jobs": JOBS, "scenario": scenario,
        "fingerprint": fingerprint(cache),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u, "n": counts[k]}
                    for k, (v, u) in metrics.items()},
        "raw": raw,
    }
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, "%s-seed%d-trace%d-%d.json" % (
            args.workload, args.seed, args.trace, time.time_ns())),
            "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
