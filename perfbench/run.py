#!/usr/bin/env python3
"""End-to-end serving benchmark of the lcp query service.

Builds perfbench/ (the lcp library plus the lcp_e2e program) as a Release
tree, runs one seeded workload against QueryService, checks every answer
against the direct-evaluation oracle, and prints one JSON result as the last
line of stdout.

Run from the repository root:

  python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selfcheck

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off);
--trace 1 reports the per-layer metrics of the separate traced run.
--selfcheck runs every workload briefly on the default and the held-out seed
(catalogue.json), checks that the oracle rejects a corrupted expectation,
that exact metrics repeat, and that each workload loads its intended layer.

The build goes to $CARGO_TARGET_DIR (default .bench_build); full per-run
reports and replay spans go to its results/ directory.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RUN_LIMIT_S = 170  # Every run ends well inside 180 s.


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO_ROOT, path)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def cached_build_type(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configures (once) and builds the Release tree; returns the binary."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "lcp", "CMakeLists.txt")):
        fail(f"lcp sources not found under {REPO_ROOT}/src/lcp")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # Like bench/run_benches.sh: never record numbers from a tree that
        # is not a Release build.
        build_type = cached_build_type(cache)
        if build_type != "Release":
            fail(f"{out} is a '{build_type}' build, not Release; remove it "
                 "or point CARGO_TARGET_DIR elsewhere")
    else:
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=600)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=900)
    return os.path.join(out, "lcp_e2e")


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(REPO_ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(REPO_ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_binary(binary, workload, seed, seconds, trace, extra=(), deadline=None):
    """Runs one measurement; returns the JSON report of lcp_e2e."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--commit", git_commit(), *extra]
    if trace:
        cmd += ["--spans-out", os.path.join(results, f"spans-{tag}.csv")]
    timeout = (deadline - time.monotonic()) if deadline else RUN_LIMIT_S
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(timeout, 1))
    sys.stderr.write(proc.stderr)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"lcp_e2e exited with {proc.returncode}")
    report = json.loads(lines[-1])
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    return report


def summary_lines(report):
    """Human-readable lines: every metric with its unit and sample count."""
    lines = []
    for name, m in report["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} "
                     f"(n={m['samples']})")
    for name in ("error_rate", "source_calls_per_request"):
        if name in report["checks"]:
            unit = "ratio" if name == "error_rate" else "count"
            lines.append(f"  {name:40s} {report['checks'][name]:>14.6g} "
                         f"{unit:6s} (whole run)")
    return lines


def contract_line(report, spec, trace):
    """The result line: exactly the metrics BENCHMARK.json lists."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"lcp_e2e did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = bool(report["correct"]) and not report["errors"]
    return {"correct": correct, "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    binary = build()
    report = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, deadline=deadline)
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}")
    print("\n".join(summary_lines(report)))
    for error in report["errors"]:
        print(f"  ERROR {error}")
    print(json.dumps({"provenance": report["provenance"],
                      "checks": report["checks"]}))
    print(json.dumps(contract_line(report, spec, args.trace)))


def selfcheck(args):
    catalogue = load_json(os.path.join(BENCH_DIR, "catalogue.json"))
    workloads = [w["name"] for w in
                 load_json(os.path.join(REPO_ROOT, "BENCHMARK.json"))["workloads"]]
    binary = build()
    problems = []

    def expect(condition, what):
        print(f"  [{'ok' if condition else 'FAIL'}] {what}")
        if not condition:
            problems.append(what)

    exact = [name for name, m in catalogue["metrics"].items()
             if m["kind"] == "exact"]
    for seed in (catalogue["default_seed"], catalogue["held_out_seed"]):
        for workload in workloads:
            runs = {}
            for trace in (0, 1):
                print(f"{workload} seed={seed} trace={trace}")
                first = run_binary(binary, workload, seed, args.seconds, trace)
                print("\n".join(summary_lines(first)))
                expect(first["correct"] and not first["errors"],
                       f"{workload}/{seed}/trace{trace}: every answer matches "
                       f"the oracle {first['errors']}")
                runs[trace] = first
            expect(runs[1]["checks"].get("layer_dominance_ok") == 1,
                   f"{workload}/{seed}: layer dominance {runs[1]['checks']}")
            if seed != catalogue["default_seed"]:
                continue
            # Exact metrics repeat on the same seed.
            again = {t: run_binary(binary, workload, seed, args.seconds, t)
                     for t in (0, 1)}
            for name in exact:
                for t in (0, 1):
                    values = [r["metrics"].get(name, {}).get("value")
                              for r in (runs[t], again[t])]
                    values += [r["checks"].get(name) for r in (runs[t], again[t])]
                    values = [v for v in values if v is not None]
                    if values:
                        expect(len(set(values)) == 1,
                               f"{workload}: {name} repeats exactly {values}")
            # The oracle comparison rejects a corrupted expectation.
            bad = run_binary(binary, workload, seed, 1, 0, ["--corrupt-oracle"])
            expect(not bad["correct"] and bad["failed"] > 0,
                   f"{workload}: corrupted oracle is detected "
                   f"(failed={bad['failed']})")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default 20, selfcheck 1.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if args.selfcheck:
        args.seconds = args.seconds or 1.5
        return selfcheck(args)
    args.seconds = args.seconds or 20
    if not args.workload:
        parser.error("--workload is required")
    measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
