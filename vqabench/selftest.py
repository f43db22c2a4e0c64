#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 vqabench/selftest.py

Run from the repository root. Checks, on short runs of every workload:
- the result line round-trips through `python3 -m json.tool`;
- every metric BENCHMARK.json names appears with its unit (end-to-end
  metrics with --trace 0, per-layer metrics with --trace 1), and the run
  is correct with no failures;
- a deliberately corrupted output (--corrupt 1) is counted as failed, the
  kc samples of noisy_dm's traced run included;
- per-layer work counts repeat exactly for a fixed seed;
and runs the C++ unit checks of the benchmark's own helpers (JSON writer,
statistics, self time).
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = "1"
COUNTS = {
    "ideal_sv": ["circuit.fused_ops"],
    "noisy_dm": ["circuit.fused_ops", "ac.edges", "cnf.clauses",
                 "knowledge.decisions", "bayesnet.nodes", "ac.gibbs_sweeps"],
    "serve_mix": ["circuit.fused_ops"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def result_of(stdout):
    last = stdout.strip().splitlines()[-1]
    tool = subprocess.run([sys.executable, "-m", "json.tool"], input=last,
                          capture_output=True, text=True)
    return json.loads(last), tool.returncode == 0


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    unit = run.build("vqabench_unit")
    check(subprocess.run([unit]).returncode == 0, "helper unit checks")

    for workload in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", "7",
                 "--seconds", SECONDS, "--trace", str(trace)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                check(False, f"{workload} trace={trace} exits 0")
                continue
            res, tool_ok = result_of(proc.stdout)
            check(tool_ok, f"{workload} trace={trace} json.tool round-trip")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{workload} trace={trace} correct, nothing failed")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{workload} trace={trace} prints every "
                               f"{kind} metric with its unit")
            if trace and workload in COUNTS:
                again = subprocess.run(
                    [binary, "--workload", workload, "--seed", "7",
                     "--seconds", SECONDS, "--trace", "1",
                     "--out", os.path.join(run.build_dir(), "traces")],
                    capture_output=True, text=True)
                res2, _ = result_of(again.stdout)
                for name in COUNTS[workload]:
                    a = res["metrics"][name]["value"]
                    b = res2["metrics"][name]["value"]
                    check(a == b and a > 0,
                          f"{workload} {name} repeats exactly ({a}, {b})")

        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", "7",
             "--seconds", SECONDS, "--trace", "0", "--corrupt", "1"],
            capture_output=True, text=True)
        res, _ = result_of(proc.stdout)
        check(res["failed"] > 0 and not res["correct"],
              f"{workload} corrupted output is counted as failed "
              f"({res['failed']}/{res['attempted']})")

    # The traced noisy_dm run also checks kc's Gibbs samples, one check per
    # traced evaluation on top of the session's: with every output corrupted,
    # all of them fail, so more checks fail than there were evaluations.
    proc = subprocess.run(
        [binary, "--workload", "noisy_dm", "--seed", "7",
         "--seconds", SECONDS, "--trace", "1", "--corrupt", "1",
         "--out", os.path.join(run.build_dir(), "traces")],
        capture_output=True, text=True)
    res, _ = result_of(proc.stdout)
    evals = json.loads(proc.stdout.strip().splitlines()[-2])["eval_count"]
    check(res["failed"] == res["attempted"] and res["failed"] > evals,
          f"noisy_dm corrupted kc samples are counted as failed "
          f"({res['failed']}/{res['attempted']}, {evals} evaluations)")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
