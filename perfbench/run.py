#!/usr/bin/env python3
"""Stage-timed slot benchmark for the SpotDC reproduction.

Run one workload from the repository root:

    python3 perfbench/run.py --workload testbed-uniform --seed 42 --seconds 25 --trace 0

The script builds the benchmark binary (a package of its own in this
directory, built in release mode into $CARGO_TARGET_DIR, by default
.bench_build), looks up the episode digest recorded for the workload and
seed in reference.json (or has the binary compute it in a separate
process when the seed is not recorded), runs the workload, prints the
binary's report and a provenance line, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics BENCHMARK.json lists, --trace 1
the per-layer ones; the script refuses to print a result whose metric
names or units differ from that list.

    python3 perfbench/run.py --record 0-31,42,1729

re-records the digests for the given seeds into reference.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
WORKLOADS = ["testbed-uniform", "hyperscale-15k", "hyperscale-15k-sharded"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), "release", "spotdc-perfbench")


def call(binary, args, seconds):
    """Runs the binary, allowing it twice `seconds` plus two minutes;
    returns its stdout lines, the last parsed as JSON."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=2 * seconds + 120)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{' '.join(args[:3])}: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{' '.join(args[:3])} exited with {done.returncode}")
    return lines[:-1], json.loads(lines[-1])


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def reference_digest(binary, workload, seed):
    # A reference episode takes under 40 s on a 2-vCPU host.
    args = ["reference", "--workload", workload, "--seed", str(seed)]
    return call(binary, args, 60)[1]["digest"]


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def rustc_version():
    try:
        done = subprocess.run(["rustc", "--version"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run(args):
    spec = load_json(BENCHMARK)
    reference = load_json(REFERENCE)
    binary = build()
    digest = reference["digests"].get(args.workload, {}).get(str(args.seed))
    source = "recorded"
    if digest is None:
        digest = reference_digest(binary, args.workload, args.seed)
        source = "computed"
    cmd = ["run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expect-digest", digest]
    lines, result = call(binary, cmd, args.seconds)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json's {sorted(want.items())}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail("a metric is not a finite number")

    for line in lines:
        print(line)
    info = result["info"]
    print(json.dumps({"provenance": {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "episodes": info["episodes"],
        "slots_per_run": info["slots_per_run"],
        "setups": info["setups"],
        "failed_slot_share": info["failed_slot_share"],
        "digest": digest,
        "digest_source": source,
        "digests_matched": info["digests_matched"],
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "rustc": rustc_version(),
    }}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args):
    binary = build()
    reference = load_json(REFERENCE)
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for s in parse_seeds(args.record):
            digests[workload][str(s)] = reference_digest(binary, workload, s)
            print(f"{workload} seed {s}: {digests[workload][str(s)]}", file=sys.stderr)
    reference["digests"] = digests
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="re-record the digests for SEEDS, e.g. 0-31,42")
    args = parser.parse_args()
    if args.record:
        record(args)
    elif args.workload:
        run(args)
    else:
        parser.error("--workload or --record is required")


if __name__ == "__main__":
    main()
