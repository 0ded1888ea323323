#!/usr/bin/env python3
"""Self-test of the host-speed benchmark (about two minutes).

    python3 perfbench/selftest.py [--seed N]

For every workload, one timed run and one traced run (two untraced
plus two traced repetitions) must print identical per-run cycles and
stats fingerprints: self-profiling must not change the simulation.
The traced run must reconcile and show each workload's expected
largest layer. The seed defaults to 2, not the benchmark's default
seed 1. Negative cases: a perturbed kernel result counts as a
failed run, VIA_CHECK=1 is refused, and --out never overwrites a
baseline. Exits 1 on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Largest per-layer host time in the traced split, per workload.
LARGEST = {
    "spmv_csb_1core": "cpu.core_s",
    "mixed_4core": "cpu.core_s",
    "rmat_sampled": "kernels.emit_exec_s",
}
LAYERS = ("sparse.gen_s", "sparse.convert_s", "cpu.machine_s",
          "kernels.upload_s", "bench.check_s", "cpu.core_s",
          "via.fivu_s", "mem.cache_s", "mem.dram_s",
          "kernels.emit_exec_s")


def run(args, env=None):
    proc = subprocess.run(RUN + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    """The result JSON of a run (the last stdout line), or {}."""
    return json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else {}


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        sys.exit(1)


def identity(lines):
    """The simulated outcome: per-run lines and the fingerprint line."""
    return [l.split("  reps")[0] for l in lines
            if l.startswith(("run ", "fingerprint "))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2)
    seed = str(ap.parse_args().seed)

    for w in LARGEST:
        base = ["--workload", w, "--seed", seed, "--seconds", "0"]
        code, timed = run(base + ["--trace", "0"])
        res = result(timed)
        expect(code == 0 and res.get("correct") and res["failed"] == 0,
               "%s timed run passes its result checks" % w)
        code, traced = run(base + ["--trace", "1"])
        res = result(traced)
        expect(code == 0 and res.get("correct") and res["failed"] == 0,
               "%s traced run passes checks and reconciles" % w)
        expect(identity(timed) == identity(traced),
               "%s timed and traced runs give identical fingerprints"
               % w)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        top = max(LAYERS, key=lambda k: m[k])
        expect(top == LARGEST[w], "%s largest layer is %s (got %s)"
               % (w, LARGEST[w], top))
        llc = m["mem.llc.reads"] > 0
        expect(llc == (w == "mixed_4core"),
               "%s shared-LLC counts non-zero only on mixed_4core" % w)
        if w == "spmv_csb_1core":
            via = {l.split()[2]: float(l.split()[3].rstrip("%"))
                   for l in traced if l.startswith("via-runs share")}
            expect(max(via, key=via.get) == "fivu",
                   "FIVU leads the VIA runs of spmv_csb_1core")
        if w == "rmat_sampled":
            expect(m["mem.cache_s"] + m["kernels.emit_exec_s"]
                   > 0.5 * m["kernels.run_s"],
                   "cache + emit_exec dominate rmat_sampled")
            expect(m["via.fivu_s"] < 0.1 * m["kernels.run_s"],
                   "the FIVU share is small on rmat_sampled")

    code, lines = run(["--workload", "rmat_sampled", "--seed", seed,
                       "--seconds", "0", "--perturb", "1"])
    res = result(lines)
    expect(code == 0 and res.get("correct") is False
           and res["failed"] == 1 and res["attempted"] == 1,
           "a perturbed result counts as a failed run")

    env = dict(os.environ, VIA_CHECK="1")
    code, lines = run(["--workload", "rmat_sampled", "--seconds", "0"],
                      env)
    expect(code != 0 and not result(lines),
           "timed runs are refused under VIA_CHECK=1")
    for name in ("BENCHMARK.json", "BENCH_simspeed.json"):
        code, _ = run(["--workload", "rmat_sampled", "--out", name])
        expect(code == 2, "--out refuses to overwrite " + name)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
