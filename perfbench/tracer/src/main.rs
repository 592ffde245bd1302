//! In-process traced run of one benchmark workload, plus the paper-gap
//! helper the untraced runs use.
//!
//! ```text
//! rfbench-trace suite COMMITS SEED SPANS_OUT   # traced suite pass + layer probes
//! rfbench-trace check COMMITS SEED SPANS_OUT   # traced check matrix + layer probes
//! rfbench-trace paper-gap dir RESULTS_DIR      # mean |gap| of a suite's headlines
//! rfbench-trace paper-gap values ID=VALUE...   # mean |gap| of given headlines
//! ```
//!
//! The traced modes wrap calls into each layer's public functions in
//! spans kept in memory, write the spans to `SPANS_OUT` (one JSON object
//! a line) when the run ends, and print one JSON object of raw layer
//! measurements as the last stdout line. `perfbench/run.py` turns those
//! into the per-layer metrics. The suite's environment (`RF_JOBS`,
//! `RF_STORE`, `RF_PROFILE`, ...) is set by the caller, exactly as for
//! the untraced `all` run of the same workload, and the run writes only
//! into its working directory.

use rf_check::{CheckParams, Sanitizer};
use rf_core::{skip_telemetry, Pipeline, SimStats};
use rf_experiments::bench::{ProbeSummary, SanitizerStatus, SuiteBench};
use rf_experiments::codec;
use rf_experiments::runner::{self, RunCache, RunSpec, Scale, SimPool};
use rf_obs::fidelity;
use rf_obs::json::Value;
use rf_workload::{spec92, TraceGenerator};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The suite harnesses in `all`'s order, with the benchmark each one's
/// traced probe simulates (the same pairs `all` uses).
type Harness = fn(&Scale) -> String;
const HARNESSES: [(&str, Harness, &str); 12] = [
    ("table1", rf_experiments::table1::run, "compress"),
    ("fig3", rf_experiments::fig3::run, "espresso"),
    ("fig4", rf_experiments::fig4::run, "tomcatv"),
    ("fig5", rf_experiments::fig5::run, "su2cor"),
    ("fig6", rf_experiments::fig6::run, "tomcatv"),
    ("fig7", rf_experiments::fig7::run, "doduc"),
    ("fig8", rf_experiments::fig8::run, "su2cor"),
    ("fig10", rf_experiments::fig10::run, "gcc1"),
    ("ablation", rf_experiments::ablation::run, "mdljdp2"),
    ("extensions", rf_experiments::extensions::run, "espresso"),
    ("sensitivity", rf_experiments::sensitivity::run, "ora"),
    ("dataflow", rf_experiments::dataflow::run, "mdljsp2"),
];

/// Commit budgets `all` gives its out-of-band passes at most.
const CALIBRATION_COMMITS: u64 = 10_000;
const PROBE_COMMITS: u64 = 5_000;
const SANITIZER_PROBE_COMMITS: u64 = 2_000;

/// Rounds of the kernel measurements over the check matrix; each layer
/// cost is the median round.
const ROUNDS: usize = 3;

/// Distinct specs the run-cache and codec probes cycle through (about
/// the suite's 2029 lookups).
const CACHE_PROBE_SPECS: usize = 2048;

struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder: spans nest through an explicit stack and are
/// written out only when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and
    /// returns its duration in nanoseconds.
    fn end(&mut self, id: usize) -> u64 {
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    fn timed<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                Value::String(s.name.clone()),
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Raw measurements, emitted as one flat JSON object.
#[derive(Default)]
struct Out(Vec<(String, f64)>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.0
            .push((name.to_owned(), if value.is_finite() { value } else { 0.0 }));
    }

    fn render(&self) -> String {
        Value::Object(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        )
        .to_string()
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spec_of(p: &CheckParams) -> RunSpec {
    let mut spec = RunSpec::baseline(&p.bench, p.width)
        .regs(p.regs)
        .exceptions(p.exceptions)
        .commits(p.commits);
    spec.seed = p.seed;
    spec
}

fn generator(p: &CheckParams) -> TraceGenerator {
    let profile = spec92::by_name(&p.bench).expect("check-matrix benchmarks exist");
    TraceGenerator::new(&profile, p.seed)
}

/// The traced suite pass: what `all` does, call by call, with a span
/// around each layer's public entry point. Returns the reports.
fn suite_pass(t: &mut Tracer, out: &mut Out, scale: &Scale) -> Vec<(String, String)> {
    let pass = t.begin("suite");
    let mut bench = SuiteBench::start(scale.commits);
    let live = rf_obs::live::env_config().expect("RF_TELEMETRY settings are valid");
    if let Some(cfg) = &live {
        let jobs = SimPool::from_env().jobs() as u64;
        rf_obs::live::start(cfg, scale.commits, jobs, HARNESSES.len() as u64)
            .expect("live telemetry starts");
    }
    std::fs::create_dir_all("results").expect("results directory");
    let mut reports = Vec::new();
    let mut probes_ns = 0;
    for (name, run, probe_bench) in HARNESSES {
        let (report, ns) = t.timed(&format!("harness.{name}"), || {
            bench.try_time(name, || run(scale))
        });
        let report = report.unwrap_or_else(|e| panic!("harness {name} failed: {e}"));
        out.put(&format!("harness.{name}.s"), ns as f64 / 1e9);
        let ((), ns) = t.timed("bench.probe", || {
            black_box(ProbeSummary::collect(
                probe_bench,
                PROBE_COMMITS.min(scale.commits),
            ));
        });
        probes_ns += ns;
        std::fs::write(format!("results/{name}.txt"), &report).expect("report written");
        reports.push((name.to_owned(), report));
    }
    if live.is_some() {
        t.timed("obs.live.finalize", rf_obs::live::finalize);
    }
    let (_, ns) = t.timed("bench.calibration", || {
        bench.measure_speedup(scale.commits.min(CALIBRATION_COMMITS))
    });
    out.put("bench.calibration_s", ns as f64 / 1e9);
    let (probe, ns) = t.timed("bench.sanitizer_probe", || {
        rf_check::suite_probe(scale.commits.min(SANITIZER_PROBE_COMMITS))
    });
    probes_ns += ns;
    out.put("bench.probes_s", probes_ns as f64 / 1e9);
    bench.set_sanitizer(SanitizerStatus {
        probes: probe.probes,
        events: probe.events,
        violations: probe.violations,
    });
    t.timed("store.sync", runner::store_sync);
    let (headlines, ns) = t.timed("obs.fidelity.extract", || {
        reports
            .iter()
            .flat_map(|(name, report)| fidelity::extract_headlines(name, report))
            .map(|h| (h.id.to_owned(), h.value))
            .collect::<Vec<_>>()
    });
    out.put("obs.fidelity.extract_ms", ns as f64 / 1e6);
    let ((), ns) = t.timed("obs.ledger.append", || {
        std::fs::write("results/BENCH_suite.json", bench.to_json()).expect("suite report");
        let line = bench.to_ledger_record(headlines).to_line();
        rf_obs::ledger::append_line(Path::new(rf_obs::ledger::LEDGER_PATH), &line)
            .expect("ledger append");
    });
    out.put("obs.ledger.append_ms", ns as f64 / 1e6);
    let wall = t.end(pass);
    out.put("traced_wall_s", wall as f64 / 1e9);

    // Every harness again, now served by the warm run cache: what is left
    // is report rendering and result folding.
    let render = t.begin("harness.render");
    for (name, run, _) in HARNESSES {
        let (report, _) = t.timed(&format!("harness.render.{name}"), || run(scale));
        black_box(report);
    }
    out.put("harness.render_s", t.end(render) as f64 / 1e9);
    reports
}

/// The traced check pass: `rfstudy check`'s 72 cross-validations.
fn check_pass(t: &mut Tracer, out: &mut Out, matrix: &[CheckParams]) {
    let pass = t.begin("check");
    let mut failed = 0u64;
    for p in matrix {
        let (report, _) = t.timed("check.cross_validate", || rf_check::cross_validate(p));
        if !report.expect("check-matrix benchmarks exist").passed() {
            failed += 1;
        }
    }
    out.put("traced_wall_s", t.end(pass) as f64 / 1e9);
    out.put("check.failed", failed as f64);
}

/// One plain kernel run: `(stats, run ns, trace instructions drawn)`.
fn plain_run(p: &CheckParams) -> (SimStats, u64, u64) {
    let mut trace = generator(p);
    let start = Instant::now();
    let stats = Pipeline::new(rf_check::config_for(p)).run(&mut trace, p.commits);
    (stats, start.elapsed().as_nanos() as u64, trace.emitted())
}

/// Kernel, trace generation, sanitizer, oracle and instrumentation-tax
/// measurements over the check matrix. Returns one plain run's stats per
/// spec for the codec, cache and store probes.
fn kernel_probes(t: &mut Tracer, out: &mut Out, matrix: &[CheckParams]) -> Vec<SimStats> {
    let span = t.begin("core.kernel");
    rf_prof::set_enabled(false);
    rf_obs::live::set_enabled(false);
    let mut plain = Vec::new();
    let mut gen = Vec::new();
    let mut sanitized = Vec::new();
    let mut oracle = Vec::new();
    let mut prof = Vec::new();
    let mut live = Vec::new();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); matrix.len()];
    let mut kept = Vec::new();
    let (mut commits, mut cycles, mut skipped, mut emitted) = (0u64, 0u64, 0u64, 0u64);
    let (mut squashed, mut inserted, mut no_reg, mut dq_full) = (0u64, 0u64, 0u64, 0u64);
    let (mut loads, mut load_misses, mut branches, mut mispredicts) = (0u64, 0u64, 0u64, 0u64);
    let (mut violations, mut oracle_insts) = (0u64, 0u64);
    for round in 0..ROUNDS {
        let (mut plain_ns, mut gen_ns, mut san_ns, mut oracle_ns) = (0u64, 0u64, 0u64, 0u64);
        let (mut prof_ns, mut live_ns) = (0u64, 0u64);
        for (i, p) in matrix.iter().enumerate() {
            let skip0 = skip_telemetry().0;
            let (stats, ns, drawn) = plain_run(p);
            let skip1 = skip_telemetry().0;
            plain_ns += ns;
            run_ms[i].push(ns as f64 / 1e6);

            // The same number of trace instructions, generated alone.
            let mut trace = generator(p);
            let start = Instant::now();
            for _ in 0..drawn {
                black_box(trace.next());
            }
            gen_ns += start.elapsed().as_nanos() as u64;

            let mut trace = generator(p);
            let start = Instant::now();
            let (_, san) = Pipeline::with_observer(
                rf_check::config_for(p),
                Sanitizer::new(p.regs, p.exceptions),
            )
            .run_observed(&mut trace, p.commits);
            san_ns += start.elapsed().as_nanos() as u64;

            let prefix: Vec<_> = generator(p).take(stats.committed as usize).collect();
            let bw = rf_check::config_for(p).effective_insert_bandwidth();
            let start = Instant::now();
            black_box(rf_check::analyze(&prefix, bw));
            oracle_ns += start.elapsed().as_nanos() as u64;

            rf_prof::set_enabled(true);
            prof_ns += plain_run(p).1;
            rf_prof::set_enabled(false);
            black_box(rf_prof::collect());

            rf_obs::live::set_enabled(true);
            live_ns += plain_run(p).1;
            rf_obs::live::set_enabled(false);

            if round == 0 {
                commits += stats.committed;
                cycles += stats.cycles;
                skipped += skip1 - skip0;
                emitted += drawn;
                squashed += stats.squashed;
                inserted += stats.inserted;
                no_reg += stats.insert_stall_no_reg;
                dq_full += stats.insert_stall_dq_full;
                loads += stats.cache.loads;
                load_misses += stats.cache.load_misses();
                branches += stats.bpred.predicted();
                mispredicts += stats.bpred.mispredicted();
                violations += san.total_violations();
                oracle_insts += prefix.len() as u64;
                kept.push(stats);
            }
        }
        plain.push(plain_ns as f64);
        gen.push(gen_ns as f64);
        sanitized.push(san_ns as f64);
        oracle.push(oracle_ns as f64);
        prof.push(prof_ns as f64);
        live.push(live_ns as f64);
    }
    t.end(span);
    let plain = median(&mut plain);
    let gen = median(&mut gen);
    let kernel = plain - gen;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.put("workload.trace_gen.ns_per_inst", gen / emitted as f64);
    out.put("kernel.trace_insts", emitted as f64);
    out.put("core.kernel.ns_per_commit", kernel / commits as f64);
    out.put("core.kernel.ns_per_cycle", kernel / cycles as f64);
    let mut per_spec: Vec<f64> = run_ms.iter_mut().map(|ms| median(ms)).collect();
    out.put("core.run_ms.p50", percentile(&mut per_spec, 50.0));
    out.put("core.run_ms.p85", percentile(&mut per_spec, 85.0));
    out.put("kernel.commits", commits as f64);
    out.put("kernel.cycles", cycles as f64);
    out.put("kernel.cycles_skipped", skipped as f64);
    out.put("core.skip_ratio", ratio(skipped, cycles));
    out.put("core.squash_ratio", ratio(squashed, inserted));
    out.put("core.stall.no_reg", ratio(no_reg, cycles));
    out.put("core.stall.dq_full", ratio(dq_full, cycles));
    out.put("mem.dcache.miss_ratio", ratio(load_misses, loads));
    out.put("bpred.mispredict_ratio", ratio(mispredicts, branches));
    out.put(
        "check.sanitizer.ns_per_commit",
        (median(&mut sanitized) - plain) / commits as f64,
    );
    out.put(
        "check.oracle.ns_per_inst",
        median(&mut oracle) / oracle_insts as f64,
    );
    out.put("check.violations", violations as f64);
    out.put(
        "prof.overhead_pct",
        100.0 * (median(&mut prof) - plain) / plain,
    );
    out.put(
        "obs.live.overhead_pct",
        100.0 * (median(&mut live) - plain) / plain,
    );
    kept
}

/// Distinct specs for the cache and codec probes: every check-matrix
/// benchmark, width and exception model across a sweep of register
/// counts.
fn probe_specs(matrix: &[CheckParams]) -> Vec<RunSpec> {
    let base: Vec<RunSpec> = matrix
        .iter()
        .filter(|p| p.regs == 64)
        .map(spec_of)
        .collect();
    let mut specs = Vec::with_capacity(CACHE_PROBE_SPECS);
    for regs in 32.. {
        for spec in &base {
            if specs.len() == CACHE_PROBE_SPECS {
                return specs;
            }
            specs.push(spec.clone().regs(regs));
        }
    }
    unreachable!("the register sweep is unbounded")
}

fn cache_and_codec_probes(
    t: &mut Tracer,
    out: &mut Out,
    matrix: &[CheckParams],
    stats: &[SimStats],
) {
    let specs = probe_specs(matrix);
    let n = specs.len() as f64;
    let record = Arc::new(stats[0].clone());
    let (mut get, mut insert, mut digest) = (Vec::new(), Vec::new(), Vec::new());
    let span = t.begin("runner.cache");
    for _ in 0..ROUNDS {
        let cache = RunCache::new();
        let owned = specs.clone();
        let start = Instant::now();
        for spec in owned {
            cache.insert(spec, Arc::clone(&record));
        }
        insert.push(start.elapsed().as_nanos() as f64 / n);
        let start = Instant::now();
        for spec in &specs {
            black_box(cache.get(spec));
        }
        get.push(start.elapsed().as_nanos() as f64 / n);
    }
    t.end(span);
    out.put("runner.cache.ns_per_get", median(&mut get));
    out.put("runner.cache.ns_per_insert", median(&mut insert));

    let span = t.begin("codec");
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for spec in &specs {
            black_box(codec::spec_digest(spec));
        }
        digest.push(start.elapsed().as_nanos() as f64 / n);
    }
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let encoded: Vec<Vec<u8>> = stats.iter().map(codec::encode_stats).collect();
        encode.push(start.elapsed().as_nanos() as f64 / 1e3 / stats.len() as f64);
        let start = Instant::now();
        for e in &encoded {
            black_box(codec::decode_stats(e).expect("round trip"));
        }
        decode.push(start.elapsed().as_nanos() as f64 / 1e3 / stats.len() as f64);
        bytes = encoded.iter().map(Vec::len).sum();
    }
    t.end(span);
    out.put("codec.digest.ns_per_spec", median(&mut digest));
    out.put("codec.encode.us_per_record", median(&mut encode));
    out.put("codec.decode.us_per_record", median(&mut decode));
    out.put("codec.record_bytes", bytes as f64 / stats.len() as f64);
}

fn store_probes(t: &mut Tracer, out: &mut Out, matrix: &[CheckParams], stats: &[SimStats]) {
    let span = t.begin("store");
    let records: Vec<(Vec<u8>, rf_store::Digest, Vec<u8>)> = matrix
        .iter()
        .zip(stats)
        .map(|(p, s)| {
            let key = codec::spec_key_bytes(&spec_of(p));
            let digest = rf_store::Digest::of(&key);
            (key, digest, codec::encode_stats(s))
        })
        .collect();
    let n = records.len() as f64;
    let (mut append, mut sync, mut get, mut open) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let dir = format!("trace-store-{round}");
        let store = rf_store::Store::open(&dir).expect("fresh store opens");
        let start = Instant::now();
        for (key, digest, payload) in &records {
            store
                .append(codec::DIGEST_SCHEMA, *digest, key, payload)
                .expect("append");
        }
        append.push(start.elapsed().as_nanos() as f64 / 1e3 / n);
        let start = Instant::now();
        store.sync().expect("sync");
        sync.push(start.elapsed().as_nanos() as f64 / 1e6);
        let start = Instant::now();
        let reopened = rf_store::Store::open(&dir).expect("store reopens");
        let snapshot = reopened.snapshot().expect("snapshot");
        open.push(start.elapsed().as_nanos() as f64 / 1e6);
        let start = Instant::now();
        for (key, digest, _) in &records {
            black_box(
                snapshot
                    .get(codec::DIGEST_SCHEMA, digest, key)
                    .expect("stored"),
            );
        }
        get.push(start.elapsed().as_nanos() as f64 / 1e3 / n);
    }
    t.end(span);
    out.put("store.append.us_per_record", median(&mut append));
    out.put("store.sync_ms", median(&mut sync));
    out.put("store.open_ms", median(&mut open));
    out.put("store.get.us_per_record", median(&mut get));
}

fn pool_probes(t: &mut Tracer, out: &mut Out, matrix: &[CheckParams], stats: &[SimStats]) {
    let specs: Vec<RunSpec> = matrix.iter().map(spec_of).collect();
    let cores = nproc();
    let span = t.begin("runner.pool");
    let timed = |pool: SimPool, cache: &RunCache| {
        let start = Instant::now();
        black_box(pool.run_many_cached(&specs, cache));
        start.elapsed().as_nanos() as f64
    };
    let serial = timed(SimPool::new(1), &RunCache::disabled());
    let parallel = timed(SimPool::new(cores), &RunCache::disabled());
    let warm = RunCache::new();
    for (spec, s) in specs.iter().zip(stats) {
        warm.insert(spec.clone(), Arc::new(s.clone()));
    }
    let mut dispatch: Vec<f64> = (0..ROUNDS)
        .map(|_| timed(SimPool::new(cores), &warm) / 1e6)
        .collect();
    t.end(span);
    let speedup = serial / parallel;
    out.put("runner.pool.speedup_nproc_v1", speedup);
    out.put("runner.pool.utilization", speedup / cores as f64);
    out.put("runner.pool.dispatch_ms", median(&mut dispatch));
}

fn model_probes(t: &mut Tracer, out: &mut Out, matrix: &[CheckParams]) {
    let span = t.begin("model");
    let mut summaries = Vec::new();
    let start = Instant::now();
    for p in matrix.iter().filter(|p| p.width == 4 && p.regs == 2048) {
        let config = rf_check::config_for(p);
        if summaries.iter().any(|(b, _)| b == &p.bench) {
            continue;
        }
        let summary = rf_model::summarize(
            &p.bench,
            p.commits,
            p.seed,
            config.effective_insert_bandwidth(),
            config.cache_geometry(),
            config.cache_org(),
            config.predictor_kind(),
        )
        .expect("check-matrix benchmarks exist");
        summaries.push((p.bench.clone(), summary));
    }
    out.put(
        "model.summarize_ms",
        start.elapsed().as_nanos() as f64 / 1e6 / summaries.len() as f64,
    );
    out.put("model.summaries", summaries.len() as f64);
    let configs: Vec<_> = matrix
        .iter()
        .filter_map(|p| {
            let summary = &summaries.iter().find(|(b, _)| b == &p.bench)?.1;
            Some((summary, rf_check::config_for(p)))
        })
        .collect();
    let loops = 200;
    let start = Instant::now();
    for _ in 0..loops {
        for (summary, config) in &configs {
            black_box(rf_model::evaluate(summary, config));
        }
    }
    t.end(span);
    out.put(
        "model.evaluate.ns_per_config",
        start.elapsed().as_nanos() as f64 / (loops * configs.len()) as f64,
    );
}

fn traced(kind: &str, commits: u64, seed: u64, spans_out: &Path) -> Result<(), String> {
    runner::validate_env()?;
    let mut t = Tracer::new();
    let mut out = Out::default();
    let matrix = rf_check::default_matrix(commits, seed);
    match kind {
        "suite" => {
            suite_pass(&mut t, &mut out, &Scale { commits });
        }
        "check" => check_pass(&mut t, &mut out, &matrix),
        other => return Err(format!("unknown traced workload kind {other:?}")),
    }
    let stats = kernel_probes(&mut t, &mut out, &matrix);
    cache_and_codec_probes(&mut t, &mut out, &matrix, &stats);
    store_probes(&mut t, &mut out, &matrix, &stats);
    pool_probes(&mut t, &mut out, &matrix, &stats);
    model_probes(&mut t, &mut out, &matrix);
    out.put("spans", t.spans.len() as f64);
    t.write(spans_out)
        .map_err(|e| format!("writing {}: {e}", spans_out.display()))?;
    println!("{}", out.render());
    Ok(())
}

/// Mean absolute relative gap, in percent, between `headlines` and the
/// paper's values in `fidelity::TARGETS` (headlines without a paper
/// value are skipped).
fn paper_gap(headlines: &[(String, f64)]) -> Result<(f64, usize), String> {
    let gaps: Vec<f64> = headlines
        .iter()
        .filter_map(|(id, value)| {
            let paper = fidelity::target(id)?.paper.filter(|p| *p != 0.0)?;
            Some(100.0 * (value - paper).abs() / paper.abs())
        })
        .collect();
    if gaps.is_empty() {
        return Err("no headline has a paper value".to_owned());
    }
    Ok((gaps.iter().sum::<f64>() / gaps.len() as f64, gaps.len()))
}

fn paper_gap_cmd(args: &[String]) -> Result<(), String> {
    let headlines: Vec<(String, f64)> = match args {
        [mode, dir] if mode == "dir" => {
            let mut found = Vec::new();
            for (name, _, _) in HARNESSES {
                let path = Path::new(dir).join(format!("{name}.txt"));
                let report = std::fs::read_to_string(&path)
                    .map_err(|e| format!("reading {}: {e}", path.display()))?;
                found.extend(
                    fidelity::extract_headlines(name, &report)
                        .into_iter()
                        .map(|h| (h.id.to_owned(), h.value)),
                );
            }
            found
        }
        [mode, pairs @ ..] if mode == "values" => pairs
            .iter()
            .map(|pair| {
                let (id, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("expected ID=VALUE, got {pair:?}"))?;
                let value = value
                    .parse()
                    .map_err(|_| format!("bad value in {pair:?}"))?;
                Ok((id.to_owned(), value))
            })
            .collect::<Result<_, String>>()?,
        _ => return Err("usage: paper-gap dir RESULTS_DIR | paper-gap values ID=VALUE...".into()),
    };
    let (gap, n) = paper_gap(&headlines)?;
    println!("{{\"paper_gap_pct\":{gap},\"headlines\":{n}}}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [kind, commits, seed, spans] if kind == "suite" || kind == "check" => {
            match (commits.parse(), seed.parse()) {
                (Ok(c), Ok(s)) => traced(kind, c, s, Path::new(spans)),
                _ => Err(format!("bad COMMITS {commits:?} or SEED {seed:?}")),
            }
        }
        [cmd, rest @ ..] if cmd == "paper-gap" => paper_gap_cmd(rest),
        _ => Err("usage: rfbench-trace suite|check COMMITS SEED SPANS_OUT | \
                  rfbench-trace paper-gap ..."
            .to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rfbench-trace: {e}");
            ExitCode::from(2)
        }
    }
}
