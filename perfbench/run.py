#!/usr/bin/env python3
"""Builds and runs the Cicero host-speed benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call builds `cicero_perfbench`
from `perfbench/` and `src/` (Release, CMake) into `$CARGO_TARGET_DIR`
(default `.bench_build`; a relative path is taken from the repository
root); later calls rebuild only what changed.  The
binary runs one workload in its own single-threaded process and prints
its metrics; this wrapper additionally compares the simulated-output
digest of every input set the run covered against
`perfbench/expected_digests.json` (keys `<workload>/<seed>/<set>`) when
that file holds them, and re-prints the result as the last stdout line:

    {"correct": true, "attempted": 600, "failed": 0, "metrics": {...}}

Other modes:
    --self-test            small-size run of every workload, traced and
                           untraced; checks that every metric BENCHMARK.json
                           declares is emitted with its unit and direction.
    --record-digests A-B   records the simulated-output digests of every
                           workload's input sets for seeds A..B into
                           expected_digests.json.
"""
import argparse
import concurrent.futures
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "expected_digests.json")
SEEDS = os.path.join(HERE, "seeds.json")
# A run measures for --seconds, then checks and reports; anything longer
# than this margin past the budget is a hang.
RUN_MARGIN_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "deployment.hpp")):
        fail(f"simulator sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "cicero_perfbench")


def run_binary(binary, args, seconds):
    """Runs the benchmark binary with a budget of `seconds`; returns
    (stdout lines, result dict)."""
    timeout = seconds + RUN_MARGIN_S
    args = args + ["--seconds", str(seconds)]
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("benchmark printed no result line")
    return lines[:-1], result


def digests_of(lines):
    """digest lines: `digest <set> <hex>`; returns {set: hex}."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "digest":
            out[parts[1]] = parts[2]
    return out


def emitted_metrics(lines):
    """metric lines: `metric <name> <value> <unit> <better>`."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == "metric":
            out[parts[1]] = {"unit": parts[3], "better": parts[4]}
    return out


def load_json(path, default):
    if not os.path.isfile(path):
        return default
    with open(path) as f:
        return json.load(f)


def workloads_declared():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if bench is None:
        fail("BENCHMARK.json not found at the repository root")
    return bench


def self_test(binary):
    bench = workloads_declared()
    problems = []
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            lines, result = run_binary(binary, ["--workload", w["name"], "--seed", "1",
                                                "--trace", str(trace), "--small"], 0.2)
            tag = f"{w['name']} trace={trace}"
            if not result.get("correct"):
                problems.append(f"{tag}: correct=false")
            emitted = emitted_metrics(lines)
            names = {m["name"] for m in declared}
            if set(result["metrics"]) != names:
                problems.append(f"{tag}: result metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names)}")
            for m in declared:
                got = emitted.get(m["name"])
                if got is None:
                    problems.append(f"{tag}: {m['name']} not emitted")
                elif got != {"unit": m["unit"], "better": m["better"]}:
                    problems.append(f"{tag}: {m['name']} emitted as {got}, declared "
                                    f"{m['unit']}/{m['better']}")
                elif result["metrics"][m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{tag}: {m['name']} result unit differs")
            print(f"# self-test {tag}: {len(emitted)} metrics")
    for p in problems:
        print(f"# SELF-TEST FAILED: {p}")
    print("# self-test " + ("passed" if not problems else "failed"))
    return 0 if not problems else 1


def record_digests(binary, seed_range):
    first, last = (int(x) for x in seed_range.split("-"))
    jobs = [(w["name"], seed) for w in workloads_declared()["workloads"]
            for seed in range(first, last + 1)]

    def one(job):
        name, seed = job
        lines, result = run_binary(binary, ["--workload", name, "--seed", str(seed),
                                            "--trace", "0"], 0.01)
        if not result["correct"]:
            fail(f"{name} seed {seed}: outputs failed their checks")
        found = {f"{name}/{seed}/{s}": d for s, d in digests_of(lines).items()}
        for key, d in found.items():
            print(f"{key} {d}", flush=True)
        return found

    # Simulated outputs do not depend on host speed, so a few runs may
    # share the machine.
    recorded = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
        for found in pool.map(one, jobs):
            recorded.update(found)
    digests = load_json(DIGESTS, {})
    digests.update(recorded)
    with open(DIGESTS, "w") as f:
        json.dump(dict(sorted(digests.items())), f, indent=1)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", metavar="FIRST-LAST")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record_digests:
        return record_digests(binary, args.record_digests)
    if not args.workload:
        ap.error("--workload is required")
    seed = args.seed if args.seed is not None else load_json(SEEDS, {"default": 1})["default"]

    cmd = ["--workload", args.workload, "--seed", str(seed), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{seed}.trace.json")]
    lines, result = run_binary(binary, cmd, args.seconds)
    for line in lines:
        print(line)

    digests = digests_of(lines)
    if not digests:
        print("# CHECK FAILED: the benchmark printed no digest")
        result["correct"] = False
    recorded = load_json(DIGESTS, {})
    for s, digest in sorted(digests.items()):
        expected = recorded.get(f"{args.workload}/{seed}/{s}")
        if expected is None:
            print(f"# digest set {s} {digest}: no recorded reference for this seed")
        elif digest != expected:
            print(f"# CHECK FAILED: digest set {s} {digest} differs from the recorded "
                  f"{expected}: the simulated outputs changed")
            result["correct"] = False
        else:
            print(f"# digest set {s} {digest} matches the recorded reference")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
