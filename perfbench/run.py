#!/usr/bin/env python3
"""Host-speed benchmark of the VIA simulator.

Builds the simulator library from the repository's src/ together with
the hostbench program (a CMake package of its own, in this directory),
then runs one workload:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out PATH]

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of standard output is the result JSON. --out also writes the
host descriptor and the result to PATH; it refuses to overwrite
BENCHMARK.json or a BENCH_*.json baseline. See perfbench/README.md.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spmv_csb_1core", "mixed_4core", "rmat_sampled")
DEFAULT_SEED = 1
PROTECTED = ("BENCHMARK.json", "BENCH_*.json")


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources in src/ next to "
                 "perfbench/; run from a full checkout")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "hostbench", "-j", jobs], check=True, **quiet)
    return os.path.join(build_dir, "hostbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", type=int, choices=(0, 1), default=0,
                    help="corrupt one kernel result (self-test only)")
    ap.add_argument("--out", help="also write the result here")
    args = ap.parse_args()
    if args.out and any(fnmatch.fnmatch(os.path.basename(args.out), p)
                        for p in PROTECTED):
        ap.error("refusing to overwrite a committed baseline: "
                 + args.out)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--perturb", str(args.perturb)],
        stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    sys.stdout.write(proc.stdout)
    if args.out:
        lines = proc.stdout.splitlines()
        with open(args.out, "w") as f:
            json.dump({"host": lines[0], "args": vars(args),
                       "result": json.loads(lines[-1])}, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
