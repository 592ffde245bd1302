#!/usr/bin/env python3
"""The repository benchmark: four workloads against the shipped binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the release binaries
(`all`, `rfstudy`) and the benchmark's own tracer into `CARGO_TARGET_DIR`
(default `.bench_build`), sets up the workload, runs it in a closed loop
with one client for about S seconds, checks every output against the
pins in `expected.json`, and prints one JSON object as the last line of
standard output. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it also makes the in-process traced run and reports the
per-layer metrics instead. Progress goes to standard error. See
README.md for the workloads, the metrics and the correctness gate.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
TRACER_MANIFEST = BENCH_DIR / "tracer" / "Cargo.toml"
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("suite_cold", "suite_warm", "check_matrix", "suite_observed")

# Commit budgets per simulation. `tiny` is the self-test's scale.
SCALES = {
    "bench": {"suite": 5000, "check": 10000},
    "tiny": {"suite": 1000, "check": 1000},
}

# The paper seed every suite harness pins.
SUITE_SEED = 12

HARNESSES = (
    "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
    "ablation", "extensions", "sensitivity", "dataflow",
)

# Per-simulation commit caps of the suite's out-of-band passes (the
# speedup calibration runs the nine baselines twice, each harness gets
# one traced probe, and the sanitizer probe set has eight runs).
CALIBRATION_COMMITS = 10_000
PROBE_COMMITS = 5_000
SANITIZER_PROBE_COMMITS = 2_000

MIN_ITERATIONS = 3
# Stop starting new iterations after this many seconds, whatever
# --seconds says, so a run always ends well inside its time limit.
HARD_STOP_S = 120
CHILD_TIMEOUT_S = 150
SETUP_REPS = 3
# Commit budget of the smoke run each set-up makes to prove the binary
# works before the timed phase.
SMOKE_COMMITS = 200

# The check matrix's dimensions, in `rfstudy check` order.
CHECK_WIDTHS = (4, 8)
CHECK_MODELS = ("precise", "imprecise")
CHECK_REGS = (2048, 64)


class BenchError(Exception):
    """A failure that ends the run without a result (exit 1)."""


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def binaries():
    release = target_dir() / "release"
    return {
        "all": release / "all",
        "rfstudy": release / "rfstudy",
        "tracer": release / "rfbench-trace",
    }


def build():
    """Builds the shipped binaries and the tracer (no-op when current)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = (
        ["cargo", "build", "--release", "--offline", "-p", "rfstudy",
         "-p", "rf-experiments", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(TRACER_MANIFEST)],
    )
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchError(f"build failed: {' '.join(cmd)}")


# ---------------------------------------------------------------------
# Workload configuration
# ---------------------------------------------------------------------


def jobs():
    return max(1, min(2, os.cpu_count() or 1))


def rf_env(workload, commits, store_dir):
    """The complete RF_* settings of a workload's process."""
    observed = workload == "suite_observed"
    store = workload in ("suite_cold", "suite_warm")
    env = {
        "RF_COMMITS": str(commits),
        "RF_JOBS": "1" if observed else str(jobs()),
        "RF_CACHE": "1",
        "RF_STORE": "1" if store else "0",
        "RF_STORE_DIR": str(store_dir) if store else "results/store",
        "RF_PREFILTER": "0",
        "RF_SANITIZE": "1" if observed else "0",
        "RF_PROFILE": "1" if observed else "0",
        "RF_TELEMETRY": "1" if observed else "0",
        "RF_TELEMETRY_INTERVAL_MS": "250",
    }
    return env


def process_env(rf):
    """The host environment with every inherited RF_* knob replaced."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RF_")}
    env.update(rf)
    return env


def run_child(cmd, cwd, env, stdout_path):
    """Runs one process to completion: (exit code, wall s, cpu s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(Path(stdout_path).with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, lambda: os.kill(child.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return child.returncode, wall, cpu, usage.ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------


class Gate:
    """Counts checked operations and failures across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def operations(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def success_rate(self):
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def suite_counters(bench):
    """The deterministic counters of one BENCH_suite.json."""
    harnesses = bench.get("harnesses", [])
    store = bench.get("store")
    return {
        "simulations": bench.get("simulations"),
        "instructions_committed": bench.get("instructions_committed"),
        "cycles": sum(h.get("cycles", 0) for h in harnesses),
        "cycles_skipped": sum(h.get("cycles_skipped", 0) for h in harnesses),
        "cache_hits": bench.get("cache_hits"),
        "cache_misses": bench.get("cache_misses"),
        "store_hits": store["hits"] if store else None,
        "store_misses": store["misses"] if store else None,
        "store_writes": store["writes"] if store else None,
    }


def gate_suite(gate, rc, results, pins, workload, reference=None):
    """Checks one suite run's outputs; returns its BENCH_suite.json (or None)."""
    gate.check(rc == 0, f"{workload}: all exited {rc}")
    for name in HARNESSES:
        path = results / f"{name}.txt"
        digest = sha256_file(path) if path.is_file() else None
        gate.check(digest == pins["reports"][name], f"{workload}: results/{name}.txt digest")
        if reference is not None:
            same = path.is_file() and path.read_bytes() == (reference / f"{name}.txt").read_bytes()
            gate.check(same, f"{workload}: results/{name}.txt differs from suite_cold's")
    try:
        bench = json.loads((results / "BENCH_suite.json").read_text())
    except (OSError, ValueError):
        gate.check(False, f"{workload}: BENCH_suite.json unreadable")
        return None
    counters = suite_counters(bench)
    for key, want in pins["counters"][workload].items():
        gate.check(counters[key] == want, f"{workload}: {key} {counters[key]} != pinned {want}")
    errors = sum(1 for h in bench.get("harnesses", []) if h.get("error"))
    gate.operations(len(HARNESSES), errors, f"{workload}: {errors} harnesses failed")
    violations = (bench.get("sanitizer") or {}).get("violations", 1)
    gate.operations(0, violations, f"{workload}: {violations} sanitizer violations")
    lookups = (bench.get("cache_hits") or 0) + (bench.get("cache_misses") or 0)
    gate.operations(lookups, 0, "")
    return bench


def check_lines(commits, seed, benchmarks):
    """The exact stdout of a clean `rfstudy check` at this scale and seed."""
    lines = [
        f"check {b} width={w} {m} regs={r} commits={commits} seed={seed}: PASS"
        for b in benchmarks
        for w in CHECK_WIDTHS
        for m in CHECK_MODELS
        for r in CHECK_REGS
    ]
    lines.append(f"check: {len(lines)} configurations, 0 failed")
    return lines


def gate_check(gate, rc, stdout, expected):
    """Checks one `rfstudy check` run line by line."""
    gate.check(rc == 0, f"check_matrix: rfstudy check exited {rc}")
    got = stdout.splitlines()
    gate.check(len(got) == len(expected), f"check_matrix: {len(got)} lines, want {len(expected)}")
    for i, want in enumerate(expected):
        line = got[i] if i < len(got) else None
        gate.check(line == want, f"check_matrix: line {i + 1} {line!r} != {want!r}")
    failed = sum(1 for line in got if line.startswith("check ") and line.endswith(": FAIL"))
    gate.operations(len(expected) - 1, failed, f"check_matrix: {failed} configurations failed")


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


class Runner:
    """One benchmark invocation: set-up, timed iterations and gate."""

    def __init__(self, workload, seed, seconds, scale, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.work = work
        self.bins = binaries()
        self.gate = Gate()
        pins = json.loads(EXPECTED_PATH.read_text())
        self.is_suite = workload != "check_matrix"
        if self.is_suite:
            self.commits = SCALES[scale]["suite"]
            self.input_seed = SUITE_SEED
            self.pins = pins["suite"][scale]
            if self.pins["commits"] != self.commits:
                raise BenchError(f"expected.json pins {self.pins['commits']} commits, not {self.commits}")
        else:
            self.commits = SCALES[scale]["check"]
            self.input_seed = seed
            self.check_benchmarks = pins["check"]["benchmarks"]
            self.expected_lines = check_lines(self.commits, seed, self.check_benchmarks)
        self.jobs = int(self.env(work)["RF_JOBS"])
        # suite_warm's store and the reports of the cold run that filled it.
        self.warm_store = work / "warm-store"
        self.cold_reference = work / "cold-results"
        self.counters = []
        self.iterations = []

    def env(self, store_dir):
        return rf_env(self.workload, self.commits, store_dir)

    def setup_once(self, rep):
        """Builds the workload's starting state; returns the seconds it took."""
        start = time.perf_counter()
        sdir = self.work / f"setup{rep}"
        sdir.mkdir(parents=True)
        store = sdir / "store"
        if self.workload == "suite_warm":
            # Fill a fresh store with one cold suite run; its reports are
            # the cold reference the warm reports must match byte for byte.
            rc, _, _, _ = run_child(
                [str(self.bins["all"])], sdir,
                process_env(rf_env("suite_cold", self.commits, store)), sdir / "all.out")
            elapsed = time.perf_counter() - start
            gate_suite(self.gate, rc, sdir / "results", self.pins, "suite_cold")
            for src, dst in ((store, self.warm_store), (sdir / "results", self.cold_reference)):
                shutil.rmtree(dst, ignore_errors=True)
                src.rename(dst)
            return elapsed
        # A smoke run on a tiny input proves the binary works.
        env = process_env(dict(self.env(store), RF_COMMITS=str(SMOKE_COMMITS)))
        if self.is_suite:
            cmd = [str(self.bins["all"])]
        else:
            cmd = [str(self.bins["rfstudy"]), "check", "--commits", str(SMOKE_COMMITS),
                   "--seed", str(self.seed)]
        rc, _, _, _ = run_child(cmd, sdir, env, sdir / "smoke.out")
        self.gate.check(rc == 0, f"{self.workload}: set-up smoke run exited {rc}")
        return time.perf_counter() - start

    def setup(self):
        times = []
        for rep in range(SETUP_REPS):
            times.append(self.setup_once(rep))
            shutil.rmtree(self.work / f"setup{rep}")
        return median(times)

    def iterate(self, n):
        """One timed run of the workload, then its gate."""
        idir = self.work / f"it{n}"
        idir.mkdir()
        if self.is_suite:
            store = self.warm_store if self.workload == "suite_warm" else idir / "store"
            cmd = [str(self.bins["all"])]
        else:
            store = idir / "store"
            cmd = [str(self.bins["rfstudy"]), "check", "--commits", str(self.commits),
                   "--seed", str(self.seed)]
        rc, wall, cpu, rss = run_child(cmd, idir, process_env(self.env(store)), idir / "stdout.txt")
        record = {"wall": wall, "cpu": cpu, "rss": rss, "dir": idir}
        if self.is_suite:
            reference = self.cold_reference if self.workload == "suite_warm" else None
            bench = gate_suite(self.gate, rc, idir / "results", self.pins, self.workload, reference)
            bench = bench or {}
            counters = suite_counters(bench)
            if self.counters:
                self.gate.check(counters == self.counters[0],
                                f"{self.workload}: counters differ between iterations")
            self.counters.append(counters)
            record["results"] = (bench.get("cache_hits") or 0) + (bench.get("cache_misses") or 0)
            record["insts"] = self.executed_instructions(bench)
            record["bench"] = bench
        else:
            gate_check(self.gate, rc, (idir / "stdout.txt").read_text(errors="replace"),
                       self.expected_lines)
            configs = len(self.expected_lines) - 1
            record["results"] = configs
            record["insts"] = configs * self.commits
        return record

    def executed_instructions(self, bench):
        """Committed instructions of every simulation the suite process ran."""
        c = self.commits
        insts = bench.get("instructions_committed") or 0
        if bench.get("speedup_vs_1_worker") is not None:
            insts += 18 * min(c, CALIBRATION_COMMITS)
        probes = sum(1 for h in bench.get("harnesses", []) if h.get("probe"))
        insts += probes * min(c, PROBE_COMMITS)
        insts += (bench.get("sanitizer") or {}).get("probes", 0) * min(c, SANITIZER_PROBE_COMMITS)
        return insts

    def timed_phase(self):
        start = time.perf_counter()
        while True:
            record = self.iterate(len(self.iterations))
            self.iterations.append(record)
            if len(self.iterations) > 1:
                # Keep only the newest iteration's directory on disk.
                shutil.rmtree(self.iterations[-2]["dir"])
            elapsed = time.perf_counter() - start
            typical = median([r["wall"] for r in self.iterations])
            enough = len(self.iterations) >= MIN_ITERATIONS
            if enough and (elapsed + typical > self.seconds or elapsed > HARD_STOP_S):
                break
        walls = [r["wall"] for r in self.iterations]
        log(f"{self.workload}: {len(walls)} iterations in {elapsed:.1f}s, median wall "
            f"{median(walls):.3f}s (" + " ".join(f"{w:.3f}" for w in walls) + ")")

    def paper_gap(self):
        """Mean |gap| (%) of the workload's headlines against the paper."""
        if self.is_suite:
            args = ["dir", str(self.iterations[-1]["dir"] / "results")]
        else:
            args = ["values"] + self.table1_ipc()
        done = subprocess.run([str(self.bins["tracer"]), "paper-gap", *args],
                              capture_output=True, text=True, cwd=self.work)
        if done.returncode != 0:
            raise BenchError(f"paper-gap failed: {done.stderr.strip()}")
        return json.loads(done.stdout.splitlines()[-1])["paper_gap_pct"]

    def table1_ipc(self):
        """Table 1's mean commit IPC per width, from the check matrix's
        baseline configurations run by `rfstudy run` at the paper seed."""
        out = []
        for width in CHECK_WIDTHS:
            ipcs = []
            for bench in self.check_benchmarks:
                done = subprocess.run(
                    [str(self.bins["rfstudy"]), "run", "--bench", bench, "--width", str(width),
                     "--commits", str(self.commits), "--seed", str(SUITE_SEED)],
                    capture_output=True, text=True, cwd=self.work,
                    env=process_env(self.env(self.work / "store")))
                fields = {k.strip(): v.strip() for k, v in
                          (line.split(":", 1) for line in done.stdout.splitlines() if ":" in line)}
                committed = int(fields.get("committed", "0"))
                cycles = int(fields.get("cycles", "0"))
                self.gate.check(done.returncode == 0 and committed == self.commits and cycles > 0,
                                f"rfstudy run {bench} width={width}: committed {committed}")
                ipcs.append(committed / cycles if cycles else 0.0)
            out.append(f"table1.commit_ipc_mean.{width}way={sum(ipcs) / len(ipcs)}")
        return out

    def end_to_end(self, setup_s):
        its = self.iterations
        gap = self.paper_gap()  # gated too, so before the success rate
        # Interference from other tenants only ever adds time, in phases
        # that can outlast a run, so the fastest iteration is the steady
        # estimate of the program's own cost (see README.md).
        return {
            "wall_s": min(r["wall"] for r in its),
            "results_per_s": max(r["results"] / r["wall"] for r in its),
            "minst_per_s": max(r["insts"] / r["wall"] / 1e6 for r in its),
            "cpu_s": min(r["cpu"] for r in its),
            "peak_rss_mb": median([r["rss"] for r in its]),
            "setup_s": setup_s,
            "success_rate": self.gate.success_rate(),
            "paper_gap_pct": gap,
        }


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------


def dir_bytes(path):
    path = Path(path)
    if not path.exists():
        return 0
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def traced_run(runner):
    """The in-process traced run; returns its raw layer measurements."""
    tdir = runner.work / "traced"
    tdir.mkdir()
    store = runner.warm_store if runner.workload == "suite_warm" else tdir / "store"
    spans = WORK_ROOT / f"trace-{runner.workload}.spans.jsonl"
    kind = "suite" if runner.is_suite else "check"
    cmd = [str(runner.bins["tracer"]), kind, str(runner.commits), str(runner.input_seed), str(spans)]
    rc, wall, _, _ = run_child(cmd, tdir, process_env(runner.env(store)), tdir / "stdout.txt")
    if rc != 0:
        sys.stderr.write((tdir / "stdout.err").read_text(errors="replace"))
        raise BenchError(f"traced run exited {rc}")
    raw = json.loads((tdir / "stdout.txt").read_text().splitlines()[-1])
    log(f"traced run: {wall:.1f}s, {int(raw['spans'])} spans -> {spans}")
    return raw


def per_layer(runner, raw):
    """Per-layer metrics from the traced run and the untraced counters."""
    its = runner.iterations
    wall = min(r["wall"] for r in its)
    m = {}
    for name in (
        "workload.trace_gen.ns_per_inst", "core.kernel.ns_per_commit", "core.kernel.ns_per_cycle",
        "core.run_ms.p50", "core.run_ms.p85", "core.skip_ratio", "core.squash_ratio",
        "core.stall.no_reg", "core.stall.dq_full", "mem.dcache.miss_ratio",
        "bpred.mispredict_ratio", "check.sanitizer.ns_per_commit", "check.oracle.ns_per_inst",
        "check.violations", "prof.overhead_pct", "obs.live.overhead_pct",
        "runner.cache.ns_per_get", "runner.cache.ns_per_insert", "runner.pool.speedup_nproc_v1",
        "runner.pool.utilization", "runner.pool.dispatch_ms", "codec.digest.ns_per_spec",
        "codec.encode.us_per_record", "codec.decode.us_per_record", "codec.record_bytes",
        "store.open_ms", "store.get.us_per_record", "store.append.us_per_record", "store.sync_ms",
        "model.summarize_ms", "model.evaluate.ns_per_config",
    ):
        m[name] = raw[name]
    m["workload.trace_gen.insts"] = raw["kernel.trace_insts"]
    gen_per_commit = raw["kernel.trace_insts"] / raw["kernel.commits"]
    cpu_ns_per_commit = (raw["core.kernel.ns_per_commit"]
                         + raw["workload.trace_gen.ns_per_inst"] * gen_per_commit)
    suite_names = [f"harness.{h}.s" for h in HARNESSES] + [
        "harness.render_s", "bench.calibration_s", "bench.probes_s",
        "obs.ledger.append_ms", "obs.fidelity.extract_ms"]
    if runner.is_suite:
        bench = its[-1]["bench"]
        c = suite_counters(bench)
        lookups = (c["cache_hits"] or 0) + (c["cache_misses"] or 0)
        store_hits, store_writes = c["store_hits"] or 0, c["store_writes"] or 0
        store_lookups = store_hits + (c["store_misses"] or 0)
        store_dir = runner.warm_store if runner.workload == "suite_warm" else its[-1]["dir"] / "store"
        m.update({
            "core.commits": c["instructions_committed"] or 0,
            "core.cycles": c["cycles"],
            "core.cycles_skipped": c["cycles_skipped"],
            "runner.cache.lookups": lookups,
            "runner.cache.hit_ratio": (c["cache_hits"] or 0) / lookups if lookups else 0.0,
            "runner.cache.resident_mb": bench.get("cache_resident_bytes", 0) / 1e6,
            "runner.sims_executed": c["simulations"] or 0,
            "runner.sims_failed": sum(1 for h in bench.get("harnesses", []) if h.get("error")),
            "store.hit_ratio": store_hits / store_lookups if store_lookups else 0.0,
            "store.records": store_hits + store_writes,
            "store.bytes_mb": dir_bytes(store_dir) / 1e6 if bench.get("store") else 0.0,
        })
        for name in suite_names:
            m[name] = raw[name]
        # Bottom-up rebuild of the untraced wall time: each layer's cost
        # times its count.
        per_commit = cpu_ns_per_commit
        if runner.workload == "suite_observed":
            per_commit *= 1 + (raw["prof.overhead_pct"] + raw["obs.live.overhead_pct"]) / 100
        parallel = max(1.0, raw["runner.pool.speedup_nproc_v1"]) if runner.jobs > 1 else 1.0
        kernel_s = (c["simulations"] or 0) * runner.commits * per_commit / 1e9 / parallel
        cache_s = (lookups * raw["runner.cache.ns_per_get"]
                   + (c["cache_misses"] or 0) * raw["runner.cache.ns_per_insert"]) / 1e9
        store_s = 0.0
        if bench.get("store"):
            store_s = (store_hits * (raw["store.get.us_per_record"] + raw["codec.decode.us_per_record"])
                       + store_writes * (raw["store.append.us_per_record"] + raw["codec.encode.us_per_record"])) / 1e6
            store_s += store_lookups * raw["codec.digest.ns_per_spec"] / 1e9
            store_s += (raw["store.open_ms"] + raw["store.sync_ms"]) / 1e3
        model_s = raw["model.summaries"] * (raw["model.summarize_ms"] / 1e3
                                            + raw["model.evaluate.ns_per_config"] / 1e9)
        other_s = (raw["harness.render_s"] + raw["bench.calibration_s"] + raw["bench.probes_s"]
                   + (raw["obs.ledger.append_ms"] + raw["obs.fidelity.extract_ms"]) / 1e3)
        rebuilt = kernel_s + cache_s + store_s + model_s + other_s
    else:
        m.update({
            "core.commits": raw["kernel.commits"],
            "core.cycles": raw["kernel.cycles"],
            "core.cycles_skipped": raw["kernel.cycles_skipped"],
            "runner.cache.lookups": 0, "runner.cache.hit_ratio": 0.0, "runner.cache.resident_mb": 0.0,
            "runner.sims_executed": raw["kernel.commits"] / runner.commits,
            "runner.sims_failed": raw["check.failed"],
            "store.hit_ratio": 0.0, "store.records": 0, "store.bytes_mb": 0.0,
        })
        for name in suite_names:
            m[name] = 0.0
        # Each configuration: a sanitized run, then the oracle over a
        # regenerated prefix of the same length.
        commits = raw["kernel.commits"]
        rebuilt = (commits * (cpu_ns_per_commit + raw["check.sanitizer.ns_per_commit"])
                   + commits * (raw["workload.trace_gen.ns_per_inst"] + raw["check.oracle.ns_per_inst"])) / 1e9
    m["trace.wall_s"] = wall
    m["trace.residual_pct"] = 100.0 * (wall - rebuilt) / wall
    m["trace.overhead_pct"] = 100.0 * (raw["traced_wall_s"] - wall) / wall
    print(f"trace: untraced wall_s {wall:.4f}s, layers rebuild {rebuilt:.4f}s, "
          f"residual {m['trace.residual_pct']:.1f}%; traced pass {raw['traced_wall_s']:.4f}s "
          f"(overhead {m['trace.overhead_pct']:.1f}%)", flush=True)
    return m


# ---------------------------------------------------------------------
# Provenance and entry point
# ---------------------------------------------------------------------


def source_digest():
    """sha256 over the sources the binaries are built from."""
    h = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "src", ROOT / "crates", ROOT / "vendor"]
    files = []
    for r in roots:
        if r.is_file():
            files.append(r)
        elif r.is_dir():
            files.extend(p for p in r.rglob("*") if p.is_file())
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(runner):
    def out(cmd):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return done.stdout.strip() if done.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    return {
        "git_rev": out(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "rustc": out(["rustc", "-V"]),
        "workload": runner.workload,
        "scale": runner.scale,
        "commits": runner.commits,
        "seed": runner.seed,
        "input_seed": runner.input_seed,
        "rf_env": runner.env("<per-run store directory>"),
    }


def load_metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="bench", choices=sorted(SCALES))
    args = ap.parse_args(argv)
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        log(f"no repository sources next to {BENCH_DIR.name}/; nothing to benchmark")
        return 2
    end_specs, layer_specs = load_metric_specs()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        build()
        work.mkdir(parents=True)
        runner = Runner(args.workload, args.seed, args.seconds, args.scale, work)
        print(json.dumps({"provenance": provenance(runner)}), flush=True)
        setup_s = runner.setup()
        runner.timed_phase()
        if args.trace:
            raw = traced_run(runner)
            values = per_layer(runner, raw)
            specs = layer_specs
        else:
            values = runner.end_to_end(setup_s)
            specs = end_specs
        for problem in runner.gate.problems:
            log(f"MISMATCH {problem}")
        metrics = {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}
        result = {
            "correct": runner.gate.failed == 0,
            "attempted": runner.gate.attempted,
            "failed": runner.gate.failed,
            "metrics": metrics,
        }
        print(json.dumps(result), flush=True)
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
