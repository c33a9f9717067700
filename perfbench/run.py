#!/usr/bin/env python3
"""Build and run the HierMinimax benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload, or each in turn with
`--workload all`. The last line of standard output is the result object;
build output goes to standard error. Spans, event stamps and a result
record with its metadata are written under `.bench_out/`. See
perfbench/METRICS.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3-convex", "fig4-mlp", "byzantine-churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_rev():
    """The git commit when run from a clone, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if "target" not in os.path.relpath(d, ROOT).split(os.sep)
        )
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    manifest = os.path.join(HERE, "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "hm-core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env["PERFBENCH_REV"] = source_rev()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in workloads:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--out", out_dir],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
        status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
