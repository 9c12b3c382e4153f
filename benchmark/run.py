#!/usr/bin/env python3
"""Build and run the TeAAL end-to-end benchmark.

One workload (the form a harness uses):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line of
standard output, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 its per_layer metrics, and the
run also writes a Chrome trace-event file to build-bench/traces/.

All workloads (no --workload):

    python3 benchmark/run.py [--seed N] [--repeat R] [--vary-seed]
                             [--trace 0|1] [--out FILE]

runs every workload R times, checks that table1_cold_t1 and
table1_warm_t4 report identical simulated statistics for each seed,
prints each traced run's overhead against its untraced run, and writes
all results to FILE (default build-bench/results.json) for compare.py.

The program is built from this checkout into build-bench/; nothing is
written outside it. Exit status is 0 only when the build, every run and
every correctness check succeeded.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "teaal-bench"
RUN_TIMEOUT_S = 170


def fatal(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fatal(f"{path} is missing")
    return json.loads(path.read_text())


def build():
    """Configure (once) and build teaal-bench; the library comes from
    the repository root through benchmark/CMakeLists.txt."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fatal(f"no library sources at {ROOT} (CMakeLists.txt and src/)")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fatal(f"build failed (full log in {log})", 1)


def run_workload(workload, seed, seconds, trace_file):
    """Run teaal-bench once; return its result dict (None if it gave
    none) after echoing its human-readable output."""
    scratch = BUILD / "scratch"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", str(scratch)]
    if trace_file is not None:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(f"run.py: {workload} exited {proc.returncode} without a "
              f"result", file=sys.stderr)
    return result


def trace_path(workload, seed):
    return BUILD / "traces" / f"{workload}-seed{seed}.json"


def check_chrome_trace(path):
    """The trace must be JSON with a traceEvents array of complete
    ("X") events, which is what Perfetto and chrome://tracing load."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        return f"trace {path} is not valid JSON: {e}"
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return f"trace {path} has no traceEvents"
    for e in events:
        if e.get("ph") != "X" or "ts" not in e or "dur" not in e:
            return f"trace {path} has a malformed event: {e}"
    return None


def summarize(spec, result, traced, trace_file):
    """Turn a teaal-bench result into the harness result: the selected
    metrics, with every correctness problem folded into `correct`."""
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    problems = list(result.get("checks_failed", []))
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if trace_file is not None:
        bad = check_chrome_trace(trace_file)
        if bad:
            problems.append(bad)
    attempted = int(result.get("attempted", 0))
    failed = int(result.get("failed", 0))
    if attempted < 1:
        problems.append("no operation attempted")
    correct = bool(result.get("correct")) and not problems
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed, "metrics": metrics}, problems


def print_verdict(workload, summary, problems, result):
    """teaal-bench has already printed every metric with its unit."""
    print(f"== {workload} seed {result['seed']}: "
          f"{'correct' if summary['correct'] else 'INCORRECT'}, "
          f"{summary['attempted']} ops, {summary['failed']} failed "
          f"(error rate {summary['failed'] / summary['attempted']:.4f})")
    for p in problems:
        print(f"  FAILED: {p}")


def one_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fatal(f"unknown workload {args.workload} (one of {names})")
    build()
    traced = args.trace == 1
    trace_file = trace_path(args.workload, args.seed) if traced \
        else None
    result = run_workload(args.workload, args.seed, args.seconds,
                          trace_file)
    if result is None:
        sys.exit(1)
    summary, problems = summarize(spec, result, traced, trace_file)
    print_verdict(args.workload, summary, problems, result)
    print(json.dumps(summary), flush=True)
    sys.exit(0 if summary["correct"] else 1)


def all_workloads(args, spec):
    started = time.monotonic()
    build()
    e2e = [m["name"] for m in spec["end_to_end"]]
    runs, ok = [], True
    for r in range(args.repeat):
        seed = args.seed + r if args.vary_seed else args.seed
        for w in spec["workloads"]:
            name = w["name"]
            plain = None
            for traced in ([False, True] if args.trace == 1 else [False]):
                trace_file = trace_path(name, seed) if traced else None
                result = run_workload(name, seed, args.seconds, trace_file)
                if result is None:
                    ok = False
                    continue
                summary, problems = summarize(spec, result, traced,
                                              trace_file)
                print_verdict(name, summary, problems, result)
                ok &= summary["correct"]
                result["correct"] = summary["correct"]
                runs.append(result)
                if not traced:
                    plain = result
                elif plain is not None:
                    print_overhead(name, plain, result, e2e)
        ok &= check_table1_agree(runs, seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": args.seconds, "runs": runs},
                              indent=1))
    print(f"\nwrote {len(runs)} runs to {out} in "
          f"{time.monotonic() - started:.0f} s; "
          f"{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    sys.exit(0 if ok else 1)


def print_overhead(name, plain, traced, e2e):
    """Tracing overhead: a traced run's end-to-end timings against the
    untraced run just before it (host noise included)."""
    print(f"  trace_overhead_pct ({name}):")
    for m in e2e:
        if m in ("setup_s", "peak_rss_mb"):
            continue
        pct = (traced["metrics"][m]["value"] /
               plain["metrics"][m]["value"] - 1) * 100
        print(f"    {m:24s} {pct:+.2f}%")


def check_table1_agree(runs, seed):
    """Both Table 1 workloads simulate the same configs on the same
    inputs, so their statistics digests must be identical."""
    by = {r["workload"]: r for r in runs
          if r["seed"] == seed and not r["traced"]}
    cold, warm = by.get("table1_cold_t1"), by.get("table1_warm_t4")
    if cold is None or warm is None:
        return True
    if cold["digests"] == warm["digests"]:
        print(f"\ntable1 digests agree for seed {seed} "
              f"(all = {cold['digests'].get('all')})")
        return True
    for key in sorted(set(cold["digests"]) | set(warm["digests"])):
        a, b = cold["digests"].get(key), warm["digests"].get(key)
        if a != b:
            print(f"FAILED: table1 digest {key}: cold {a} != warm {b}")
    return False


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--out", default=str(BUILD / "results.json"))
    args = ap.parse_args()
    if args.workload:
        one_workload(args, spec)
    all_workloads(args, spec)


if __name__ == "__main__":
    main()
