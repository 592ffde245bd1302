#!/usr/bin/env python3
"""Writes perfbench/expected.json, the pins of the correctness gate.

    python3 perfbench/pin.py

Runs the suite once per suite workload configuration at every scale in
`run.SCALES` (cold into a fresh store, warm against that store, observed
without a store), requires the twelve reports to be byte-identical across
the three, and pins their sha256 digests and each workload's
deterministic counters. It also pins the benchmark order of the
`rfstudy check` matrix. Re-pinning changes what the benchmark accepts:
do it only for a deliberate change to the simulated results, as a change
of its own.
"""

import json
import shutil
import sys

import run


def suite_pins(commits, work):
    bins = run.binaries()
    work.mkdir()
    pins = {"commits": commits, "seed": run.SUITE_SEED, "reports": None, "counters": {}}
    store = work / "store"
    for workload in ("suite_cold", "suite_warm", "suite_observed"):
        wdir = work / workload
        wdir.mkdir()
        env = run.process_env(run.rf_env(workload, commits, store))
        rc, wall, _, _ = run.run_child([str(bins["all"])], wdir, env, wdir / "stdout.txt")
        if rc != 0:
            raise run.BenchError(f"{workload} at {commits} commits exited {rc}")
        reports = {n: run.sha256_file(wdir / "results" / f"{n}.txt") for n in run.HARNESSES}
        if pins["reports"] is None:
            pins["reports"] = reports
        elif reports != pins["reports"]:
            raise run.BenchError(f"{workload} reports differ from suite_cold's")
        bench = json.loads((wdir / "results" / "BENCH_suite.json").read_text())
        pins["counters"][workload] = run.suite_counters(bench)
        run.log(f"pinned {workload} at {commits} commits ({wall:.1f}s)")
    return pins


def check_benchmarks(work):
    """The benchmark order of `rfstudy check`, read from a tiny run."""
    bins = run.binaries()
    out = work / "check.txt"
    rc, _, _, _ = run.run_child(
        [str(bins["rfstudy"]), "check", "--commits", "200", "--seed", "1"], work,
        run.process_env(run.rf_env("check_matrix", 200, work / "store")), out)
    if rc != 0:
        raise run.BenchError(f"rfstudy check exited {rc}")
    names = []
    for line in out.read_text().splitlines():
        if line.startswith("check ") and " width=" in line:
            name = line.split()[1]
            if name not in names:
                names.append(name)
    return names


def main():
    run.build()
    work = run.WORK_ROOT / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected = {
            "suite": {scale: suite_pins(c["suite"], work / scale)
                      for scale, c in run.SCALES.items()},
            "check": {"benchmarks": check_benchmarks(work)},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED_PATH.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    run.log(f"wrote {run.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
