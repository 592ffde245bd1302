//! Argument parsing for the `rfstudy` command-line simulator.
//!
//! Each subcommand declares its arguments once, as an option table for
//! the shared strict parser in [`rf_experiments::args`]; `rfstudy help`
//! and `rfstudy CMD --help` are rendered from the same tables. See
//! `main.rs` for the command implementations.

use rf_bpred::PredictorKind;
use rf_core::{ExceptionModel, MachineConfig, SchedPolicy};
use rf_experiments::args::{
    self, bench, number, positive, regs, seconds, text, uint, Choice, Cmd, Group, Matches, Opt,
};
use rf_mem::CacheOrg;
use rf_obs::trend::FidelityMode;
use rf_workload::BenchmarkProfile;
use std::fmt::{self, Write as _};
use std::time::Duration;

/// Machine options shared by `run`, `trace` and `replay`.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineOpts {
    /// Issue width.
    pub width: usize,
    /// Dispatch-queue entries (default `8 x width`).
    pub dq: Option<usize>,
    /// Physical registers per class.
    pub regs: usize,
    /// Exception model.
    pub exceptions: ExceptionModel,
    /// Cache organisation.
    pub cache: CacheOrg,
    /// Scheduler policy.
    pub sched: SchedPolicy,
    /// Split dispatch queues.
    pub split_queues: bool,
    /// Branch predictor kind.
    pub predictor: PredictorKind,
    /// Simulation seed.
    pub seed: u64,
}

impl MachineOpts {
    /// Builds the machine configuration.
    pub fn to_config(&self) -> MachineConfig {
        let mut c = MachineConfig::new(self.width)
            .dispatch_queue(self.dq.unwrap_or(self.width * 8))
            .physical_regs(self.regs)
            .exceptions(self.exceptions)
            .cache(self.cache)
            .scheduling(self.sched)
            .predictor(self.predictor)
            .seed(self.seed);
        if self.split_queues {
            c = c.split_dispatch_queues(true);
        }
        c
    }
}

/// Output format of the `trace` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    Chrome,
    /// Plain-text per-instruction cycle timeline.
    Text,
    /// Reconciled stall/latency summary.
    Summary,
}

/// Output format of the `report` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Plain-text tables.
    Text,
    /// Markdown (the CI artifact format).
    Markdown,
}

/// Output format of the `profile` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// Collapsed-stack text (flamegraph.pl / inferno / speedscope input).
    Flame,
    /// The ledger's JSON profile-tree encoding.
    Json,
    /// Aligned text table of the hottest spans.
    Text,
}

/// Output format of the `model` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFormat {
    /// Aligned text table, one configuration per line.
    Text,
    /// JSON array of per-configuration estimate objects.
    Json,
}

/// Maintenance action of the `store` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreAction {
    /// Print snapshot statistics (records, segments, schema mix).
    Stats,
    /// Re-read and checksum-verify every live record; exit nonzero on
    /// corruption.
    Verify,
    /// Rewrite the store down to its latest record per digest.
    Compact,
    /// Compact and additionally drop records written under a stale
    /// key-schema version.
    Gc,
}

/// Spells each variant of a local enum once: its `Display` impl and
/// its [`Choice`] impl come from the same list.
macro_rules! spelled {
    ($ty:ident, $what:literal, $($variant:ident = $spelling:literal),+) => {
        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self { $($ty::$variant => $spelling),+ })
            }
        }
        impl Choice for $ty {
            const WHAT: &'static str = $what;
            const ALL: &'static [Self] = &[$($ty::$variant),+];
        }
    };
}

spelled!(TraceFormat, "trace format", Chrome = "chrome", Text = "text", Summary = "summary");
spelled!(ReportFormat, "report format", Text = "text", Markdown = "markdown");
spelled!(ProfileFormat, "profile format", Flame = "flame", Json = "json", Text = "text");
spelled!(ModelFormat, "model format", Text = "text", Json = "json");
spelled!(
    StoreAction,
    "store action",
    Stats = "stats",
    Verify = "verify",
    Compact = "compact",
    Gc = "gc"
);

/// The check-style configuration matrix pinning shared by `check`,
/// `profile`, and `model`: without options the full default matrix
/// (all nine benchmarks × widths 4 and 8 × precise and imprecise
/// exceptions × 2048 and 64 registers); each option pins one
/// dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixPins {
    /// Restrict to one benchmark (`None` = all nine).
    pub bench: Option<BenchmarkProfile>,
    /// Restrict to one issue width (`None` = 4 and 8).
    pub width: Option<usize>,
    /// Restrict to one exception model (`None` = precise and
    /// imprecise).
    pub exceptions: Option<ExceptionModel>,
    /// Restrict to one register-file size (`None` = 2048 and 64).
    pub regs: Option<usize>,
    /// Commit budget per configuration (`None` = `RF_COMMITS` env or
    /// 10000).
    pub commits: Option<u64>,
    /// Workload seed.
    pub seed: u64,
}

impl MatrixPins {
    /// Expands the pins into the cross-product of configurations,
    /// resolving the commit default (`RF_COMMITS` environment variable,
    /// strictly parsed, else 10000).
    pub fn expand(&self) -> Result<Vec<rf_check::CheckParams>, String> {
        let commits = match self.commits {
            Some(commits) => commits,
            None if std::env::var_os("RF_COMMITS").is_some() => {
                rf_experiments::runner::Scale::try_from_env()?.commits
            }
            None => 10_000,
        };
        let benches: Vec<String> = match &self.bench {
            Some(profile) => vec![profile.name.clone()],
            None => rf_workload::spec92::all().into_iter().map(|p| p.name).collect(),
        };
        let widths = self.width.map_or_else(|| vec![4, 8], |w| vec![w]);
        let models = self.exceptions.map_or_else(
            || vec![ExceptionModel::Precise, ExceptionModel::Imprecise],
            |m| vec![m],
        );
        let reg_sizes = self.regs.map_or_else(|| vec![2048, 64], |r| vec![r]);
        let mut params = Vec::new();
        for b in &benches {
            for &w in &widths {
                for &m in &models {
                    for &r in &reg_sizes {
                        params.push(rf_check::CheckParams {
                            bench: b.clone(),
                            width: w,
                            exceptions: m,
                            regs: r,
                            commits,
                            seed: self.seed,
                        });
                    }
                }
            }
        }
        Ok(params)
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available benchmark profiles.
    List,
    /// Simulate a benchmark with the pipeline observer attached and
    /// export the recorded trace.
    Trace {
        /// Benchmark.
        bench: BenchmarkProfile,
        /// Commit budget.
        commits: u64,
        /// Export format.
        format: TraceFormat,
        /// Retained-detail window in cycles (`None` = whole run).
        window: Option<u64>,
        /// Output path (`None` = stdout).
        out: Option<String>,
        /// Machine options.
        machine: MachineOpts,
    },
    /// Simulate a benchmark.
    Run {
        /// Benchmark.
        bench: BenchmarkProfile,
        /// Commit budget.
        commits: u64,
        /// Wall-clock budget (`None` = unbounded). An overrunning
        /// simulation is cancelled cooperatively and the process exits 1.
        deadline_secs: Option<Duration>,
        /// Machine options.
        machine: MachineOpts,
    },
    /// Record a trace file.
    Record {
        /// Benchmark.
        bench: BenchmarkProfile,
        /// Output path.
        out: String,
        /// Instructions to record.
        count: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Replay a trace file through the pipeline.
    Replay {
        /// Trace path.
        trace: String,
        /// Commit budget (0 = drain the whole trace).
        commits: u64,
        /// Machine options.
        machine: MachineOpts,
    },
    /// Cross-validate the simulator against the static dataflow oracle
    /// with the invariant sanitizer attached.
    Check {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Wall-clock budget for the whole matrix (`None` = unbounded);
        /// an overrunning run is cancelled cooperatively and the process
        /// exits 1.
        deadline_secs: Option<Duration>,
    },
    /// Evaluate the static analytic model over the configuration
    /// matrix, or cross-validate it against the simulator (`--check`).
    Model {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Run model-vs-simulator cross-validation and gate on the
        /// error bands.
        check: bool,
        /// Output format (estimates only; `--check` always renders
        /// check-style text).
        format: ModelFormat,
        /// Wall-clock budget for the `--check` simulation batch (`None`
        /// = unbounded); overrunning configurations fail and the process
        /// exits 1. Ignored without `--check` (the model alone takes
        /// microseconds).
        deadline_secs: Option<Duration>,
    },
    /// Dataflow ILP-limit analysis.
    Dataflow {
        /// Benchmark.
        bench: BenchmarkProfile,
        /// Optional sliding window.
        window: Option<usize>,
        /// Instructions to analyse.
        count: u64,
    },
    /// Compare the latest run-history ledger record against a baseline
    /// and score paper fidelity.
    Report {
        /// Ledger path (default `results/history/suite.jsonl`).
        ledger: String,
        /// Baseline git-revision prefix (`None` = rolling median of
        /// prior comparable runs).
        baseline: Option<String>,
        /// Rolling-window size for the median baseline.
        window: usize,
        /// Report format.
        format: ReportFormat,
        /// Write the rendered report here instead of stdout.
        out: Option<String>,
        /// Also write a Prometheus text-format exposition here.
        prom: Option<String>,
        /// Exit nonzero on perf regression or fidelity drift (CI gate).
        check: bool,
        /// Perf-regression noise floor, percent.
        max_regress_pct: f64,
        /// Fidelity band multiplier (widen for smoke scales).
        band_scale: f64,
        /// Fidelity gating mode.
        fidelity: FidelityMode,
        /// Profile-drift handling mode.
        profile_drift: FidelityMode,
    },
    /// Run an instrumented batch with the rf-prof self-profiler forced
    /// on and render where the wall time went.
    Profile {
        /// Configuration matrix pinning.
        pins: MatrixPins,
        /// Render format.
        format: ProfileFormat,
        /// Rows in the text table.
        top: usize,
        /// Output path (`None` = stdout).
        out: Option<String>,
        /// Wall-clock budget for the instrumented batch (`None` =
        /// unbounded); an overrunning run is cancelled cooperatively and
        /// the process exits 1.
        deadline_secs: Option<Duration>,
    },
    /// Attach to a running (or finished) telemetry stream and render a
    /// live terminal view of the suite.
    Top {
        /// Telemetry stream path (default
        /// `results/telemetry/live.jsonl`).
        file: String,
        /// Run-history ledger path used for the ETA medians (default
        /// `results/history/suite.jsonl`).
        ledger: String,
        /// Refresh period in milliseconds.
        interval_ms: u64,
        /// Render one frame and exit instead of following the stream.
        once: bool,
        /// Spawn the suite binary with RF_TELEMETRY=1 and attach to it.
        spawn: bool,
    },
    /// Inspect or maintain the durable content-addressed run store.
    Store {
        /// What to do.
        action: StoreAction,
        /// Store directory (`None` = `RF_STORE_DIR` or
        /// `results/store`).
        dir: Option<String>,
    },
    /// Register-file timing table.
    Timing {
        /// Issue width.
        width: usize,
    },
    /// Dump a binary trace as text.
    Dump {
        /// Trace path.
        trace: String,
        /// Maximum instructions to print (0 = all).
        count: u64,
    },
    /// Print usage.
    Help,
    /// Print one subcommand's usage (`rfstudy CMD --help`).
    Usage(String),
}

static WIDTH: Opt<usize> = Opt::new("--width", "N", "issue width", positive).default("4");
static DQ: Opt<usize> =
    Opt::new("--dq", "N", "dispatch-queue entries (default 8 x width)", positive);
static REGS: Opt<usize> =
    Opt::new("--regs", "N", "physical registers per class", regs).default("2048");
static EXCEPTIONS: Opt<ExceptionModel> =
    Opt::choice("--exceptions", "exception model").default("precise");
static CACHE: Opt<CacheOrg> = Opt::choice("--cache", "cache organisation").default("lockup-free");
static SCHED: Opt<SchedPolicy> = Opt::choice("--sched", "scheduler policy").default("oldest-first");
static PREDICTOR: Opt<PredictorKind> =
    Opt::choice("--predictor", "branch predictor").default("combining");
static SPLIT_QUEUES: Opt<bool> =
    Opt::flag("--split-queues", "split the dispatch queue (extension)");
static SEED: Opt<u64> = Opt::new("--seed", "N", "workload / simulation seed", uint).default("1");
static MACHINE: Group = Group {
    title: "machine options",
    args: &[
        &WIDTH.info,
        &DQ.info,
        &REGS.info,
        &EXCEPTIONS.info,
        &CACHE.info,
        &SCHED.info,
        &PREDICTOR.info,
        &SPLIT_QUEUES.info,
        &SEED.info,
    ],
};

static BENCH_PIN: Opt<BenchmarkProfile> =
    Opt::new("--bench", "NAME", "one benchmark (default all nine)", bench);
static WIDTH_PIN: Opt<usize> =
    Opt::new("--width", "N", "one issue width (default 4 and 8)", positive);
static EXCEPTIONS_PIN: Opt<ExceptionModel> =
    Opt::choice("--exceptions", "one exception model (default precise and imprecise)");
static REGS_PIN: Opt<usize> =
    Opt::new("--regs", "N", "one register-file size (default 2048 and 64)", regs);
static COMMITS_PIN: Opt<u64> =
    Opt::new("--commits", "N", "commits per configuration (default RF_COMMITS or 10000)", uint);
static SEED_PIN: Opt<u64> = Opt::new("--seed", "N", "workload seed", uint).default("12");
static MATRIX: Group = Group {
    title: "matrix options",
    args: &[
        &BENCH_PIN.info,
        &WIDTH_PIN.info,
        &EXCEPTIONS_PIN.info,
        &REGS_PIN.info,
        &COMMITS_PIN.info,
        &SEED_PIN.info,
    ],
};

static BENCH: Opt<BenchmarkProfile> =
    Opt::new("--bench", "NAME", "benchmark (see `rfstudy list`)", bench).required();
static DEADLINE: Opt<Duration> = Opt::new(
    "--deadline-secs",
    "S",
    "wall-clock budget in seconds; an overrunning simulation is cancelled \
     cooperatively, its partial statistics are discarded, and rfstudy exits 1",
    seconds,
);
static OUT: Opt<String> = Opt::new("--out", "FILE", "write to FILE instead of stdout", text);
static LEDGER: Opt<String> =
    Opt::new("--ledger", "FILE", "run-history ledger", text).default(rf_obs::ledger::LEDGER_PATH);
static TRACE_FILE: Opt<String> = Opt::new("--trace", "FILE", "trace file", text).required();
static RUN_COMMITS: Opt<u64> = Opt::new("--commits", "N", "commit budget", uint).default("200000");
static TRACE_COMMITS: Opt<u64> = Opt::new("--commits", "N", "commit budget", uint).default("10000");
static TRACE_FORMAT: Opt<TraceFormat> = Opt::choice("--format", "export format").default("summary");
static TRACE_WINDOW: Opt<u64> =
    Opt::new("--window", "CYCLES", "keep only the last CYCLES cycles of detail", uint);
static RECORD_OUT: Opt<String> = Opt::new("--out", "FILE", "trace file to write", text).required();
static RECORD_COUNT: Opt<u64> =
    Opt::new("--count", "N", "instructions to record", uint).default("1000000");
static REPLAY_COMMITS: Opt<u64> =
    Opt::new("--commits", "N", "commit budget; 0 drains the whole trace", uint).default("0");
static MODEL_CHECK: Opt<bool> = Opt::flag("--check", "also simulate and gate the model error");
static MODEL_FORMAT: Opt<ModelFormat> = Opt::choice("--format", "estimate format").default("text");
static DATAFLOW_WINDOW: Opt<usize> =
    Opt::new("--window", "N", "sliding instruction window (default unbounded)", positive);
static DATAFLOW_COUNT: Opt<u64> =
    Opt::new("--count", "N", "instructions to analyse", uint).default("200000");
static BASELINE: Opt<String> =
    Opt::new("--baseline", "REV", "baseline git-revision prefix (default rolling median)", text);
static REPORT_WINDOW: Opt<usize> =
    Opt::new("--window", "N", "comparable runs in the rolling median", uint).default("5");
static REPORT_FORMAT: Opt<ReportFormat> = Opt::choice("--format", "report format").default("text");
static PROM: Opt<String> = Opt::new("--prom", "FILE", "also write a Prometheus exposition", text);
static REPORT_CHECK: Opt<bool> = Opt::flag("--check", "exit 1 on a regression or fidelity drift");
static MAX_REGRESS: Opt<f64> =
    Opt::new("--max-regress-pct", "P", "perf-regression noise floor", number).default("10");
static BAND_SCALE: Opt<f64> =
    Opt::new("--band-scale", "S", "fidelity band multiplier", number).default("1");
static FIDELITY: Opt<FidelityMode> = Opt::choice("--fidelity", "fidelity drift").default("gate");
static PROFILE_DRIFT: Opt<FidelityMode> =
    Opt::choice("--profile-drift", "profile drift").default("warn");
static PROFILE_FORMAT: Opt<ProfileFormat> = Opt::choice("--format", "rendering").default("text");
static TOP_ROWS: Opt<usize> = Opt::new("--top", "N", "rows in the text table", uint).default("20");
static LIVE_FILE: Opt<String> =
    Opt::new("--file", "FILE", "telemetry stream", text).default(rf_obs::live::LIVE_PATH);
static INTERVAL_MS: Opt<u64> =
    Opt::new("--interval-ms", "N", "refresh period in milliseconds", positive).default("500");
static ONCE: Opt<bool> = Opt::flag("--once", "render a single frame and exit");
static SPAWN: Opt<bool> = Opt::flag("--spawn", "launch the suite with RF_TELEMETRY=1 and attach");
static STORE_ACTION: Opt<StoreAction> = Opt::choice("ACTION", "what to do").required();
static STORE_DIR: Opt<String> =
    Opt::new("--dir", "DIR", "store directory (default RF_STORE_DIR or results/store)", text);
static DUMP_COUNT: Opt<u64> =
    Opt::new("--count", "N", "instructions to print; 0 prints all", uint).default("0");

static LIST: Cmd<'static> = Cmd { name: "rfstudy list", about: "", args: &[], groups: &[] };
static RUN: Cmd<'static> = Cmd {
    name: "rfstudy run",
    about: "",
    args: &[&BENCH.info, &RUN_COMMITS.info, &DEADLINE.info],
    groups: &[&MACHINE],
};
static TRACE: Cmd<'static> = Cmd {
    name: "rfstudy trace",
    about: "  formats: chrome (Perfetto-loadable trace-event JSON), text
  (per-instruction cycle timeline), summary (stall attribution + latency
  percentiles, reconciled against the simulator statistics). Aggregates
  always cover the whole run, whatever --window keeps in detail.",
    args: &[&BENCH.info, &TRACE_COMMITS.info, &TRACE_FORMAT.info, &TRACE_WINDOW.info, &OUT.info],
    groups: &[&MACHINE],
};
static RECORD: Cmd<'static> = Cmd {
    name: "rfstudy record",
    about: "",
    args: &[&BENCH.info, &RECORD_OUT.info, &RECORD_COUNT.info, &SEED.info],
    groups: &[],
};
static REPLAY: Cmd<'static> = Cmd {
    name: "rfstudy replay",
    about: "",
    args: &[&TRACE_FILE.info, &REPLAY_COMMITS.info],
    groups: &[&MACHINE],
};
static CHECK: Cmd<'static> = Cmd {
    name: "rfstudy check",
    about: "  without options, checks all nine benchmarks at widths 4 and 8, precise
  and imprecise exceptions, 2048 and 64 registers; each option pins one
  dimension; --deadline-secs covers the whole matrix. The matrix runs on
  RF_JOBS workers (default: all cores) and prints in matrix order, so the
  output does not depend on the worker count. Exits non-zero if any
  invariant or static bound is violated.",
    args: &[&DEADLINE.info],
    groups: &[&MATRIX],
};
static MODEL: Cmd<'static> = Cmd {
    name: "rfstudy model",
    about: "  evaluates the static analytic model (rf-model) over the same pinnable
  matrix as `rfstudy check` — no simulation, microseconds per
  configuration. --format text prints one line per configuration; json
  prints an array of estimate objects. With --check, every configuration
  is additionally simulated and the model prediction is compared against
  the measurement: exits non-zero when the mean absolute IPC error, any
  single configuration's error, or a register-pressure bracket leaves the
  accepted bands. --deadline-secs covers only the --check simulation
  batch.",
    args: &[&MODEL_CHECK.info, &MODEL_FORMAT.info, &DEADLINE.info],
    groups: &[&MATRIX],
};
static DATAFLOW: Cmd<'static> = Cmd {
    name: "rfstudy dataflow",
    about: "",
    args: &[&BENCH.info, &DATAFLOW_WINDOW.info, &DATAFLOW_COUNT.info],
    groups: &[],
};
static REPORT: Cmd<'static> = Cmd {
    name: "rfstudy report",
    about: "  reads the run-history ledger written by the `all` suite binary and
  compares the latest record against a baseline: --baseline REV pins a
  git-revision prefix, else the rolling median of the last --window
  comparable runs. Also scores the latest headline numbers against the
  paper-fidelity targets. --check exits non-zero on a perf regression
  beyond --max-regress-pct (widened per-harness by run-to-run noise) or
  a fidelity drift outside the accepted band (scaled by --band-scale;
  --fidelity warn reports drift without gating, off skips it). When
  ledger records carry rf-prof self-profiles, a profile-drift section
  tracks each span's share of suite self time vs the baseline window;
  --profile-drift gate makes out-of-band shifts fail the check (off skips
  the section). --prom FILE writes the latest record and scorecard as a
  Prometheus text-format exposition.",
    args: &[
        &LEDGER.info,
        &BASELINE.info,
        &REPORT_WINDOW.info,
        &REPORT_FORMAT.info,
        &OUT.info,
        &PROM.info,
        &REPORT_CHECK.info,
        &MAX_REGRESS.info,
        &BAND_SCALE.info,
        &FIDELITY.info,
        &PROFILE_DRIFT.info,
    ],
    groups: &[],
};
static PROFILE: Cmd<'static> = Cmd {
    name: "rfstudy profile",
    about: "  forces the rf-prof self-profiler on, runs the check matrix, and renders
  where the wall time went: text is a table of the --top N hottest spans
  plus a coverage line, flame is collapsed-stack text every standard
  flamegraph renderer loads, json is the ledger's profile-tree encoding.
  --deadline-secs covers the instrumented batch.",
    args: &[&PROFILE_FORMAT.info, &TOP_ROWS.info, &OUT.info, &DEADLINE.info],
    groups: &[&MATRIX],
};
static TOP: Cmd<'static> = Cmd {
    name: "rfstudy top",
    about: "  attaches to the live telemetry stream a suite run started with
  RF_TELEMETRY=1 writes and renders an in-place terminal view:
  per-worker utilization bars, sims in flight / done / total, commits per
  second, cache hit rate, and an ETA weighted by per-harness medians from
  the run-history ledger. --once suits scripts and CI; --spawn makes a
  one-command live run that needs no second terminal.",
    args: &[&LIVE_FILE.info, &LEDGER.info, &INTERVAL_MS.info, &ONCE.info, &SPAWN.info],
    groups: &[],
};
static STORE: Cmd<'static> = Cmd {
    name: "rfstudy store",
    about: "  operates on the durable content-addressed run store that suite runs
  populate under RF_STORE=1. stats prints snapshot statistics: live
  entries, records scanned, segments, bytes, torn/corrupt tails skipped,
  and the per-schema mix. verify re-reads and checksums every live record
  and exits 1 if any record fails. compact rewrites the store down to its
  latest record per digest (dropping superseded writes and torn tails).
  gc additionally drops records written under a stale key-schema version.",
    args: &[&STORE_ACTION.info, &STORE_DIR.info],
    groups: &[],
};
static TIMING: Cmd<'static> =
    Cmd { name: "rfstudy timing", about: "", args: &[&WIDTH.info], groups: &[] };
static DUMP: Cmd<'static> = Cmd {
    name: "rfstudy dump",
    about: "",
    args: &[&TRACE_FILE.info, &DUMP_COUNT.info],
    groups: &[],
};

/// Builds a [`Command`] from a command line its table accepted.
type Build = fn(&Matches<'_>) -> Result<Command, String>;

/// Every subcommand, in `rfstudy help` order, with its builder.
static COMMANDS: [(&Cmd<'static>, Build); 14] = [
    (&LIST, |_| Ok(Command::List)),
    (&RUN, |m| {
        Ok(Command::Run {
            bench: m.value(&BENCH)?,
            commits: m.value(&RUN_COMMITS)?,
            deadline_secs: m.get(&DEADLINE)?,
            machine: machine(m)?,
        })
    }),
    (&TRACE, |m| {
        Ok(Command::Trace {
            bench: m.value(&BENCH)?,
            commits: m.value(&TRACE_COMMITS)?,
            format: m.value(&TRACE_FORMAT)?,
            window: m.get(&TRACE_WINDOW)?,
            out: m.get(&OUT)?,
            machine: machine(m)?,
        })
    }),
    (&RECORD, |m| {
        Ok(Command::Record {
            bench: m.value(&BENCH)?,
            out: m.value(&RECORD_OUT)?,
            count: m.value(&RECORD_COUNT)?,
            seed: m.value(&SEED)?,
        })
    }),
    (&REPLAY, |m| {
        let (trace, commits) = (m.value(&TRACE_FILE)?, m.value(&REPLAY_COMMITS)?);
        Ok(Command::Replay { trace, commits, machine: machine(m)? })
    }),
    (&CHECK, |m| Ok(Command::Check { pins: pins(m)?, deadline_secs: m.get(&DEADLINE)? })),
    (&MODEL, |m| {
        Ok(Command::Model {
            pins: pins(m)?,
            check: m.flag(&MODEL_CHECK),
            format: m.value(&MODEL_FORMAT)?,
            deadline_secs: m.get(&DEADLINE)?,
        })
    }),
    (&DATAFLOW, |m| {
        Ok(Command::Dataflow {
            bench: m.value(&BENCH)?,
            window: m.get(&DATAFLOW_WINDOW)?,
            count: m.value(&DATAFLOW_COUNT)?,
        })
    }),
    (&REPORT, |m| {
        Ok(Command::Report {
            ledger: m.value(&LEDGER)?,
            baseline: m.get(&BASELINE)?,
            window: m.value(&REPORT_WINDOW)?,
            format: m.value(&REPORT_FORMAT)?,
            out: m.get(&OUT)?,
            prom: m.get(&PROM)?,
            check: m.flag(&REPORT_CHECK),
            max_regress_pct: m.value(&MAX_REGRESS)?,
            band_scale: m.value(&BAND_SCALE)?,
            fidelity: m.value(&FIDELITY)?,
            profile_drift: m.value(&PROFILE_DRIFT)?,
        })
    }),
    (&PROFILE, |m| {
        Ok(Command::Profile {
            pins: pins(m)?,
            format: m.value(&PROFILE_FORMAT)?,
            top: m.value(&TOP_ROWS)?,
            out: m.get(&OUT)?,
            deadline_secs: m.get(&DEADLINE)?,
        })
    }),
    (&TOP, |m| {
        Ok(Command::Top {
            file: m.value(&LIVE_FILE)?,
            ledger: m.value(&LEDGER)?,
            interval_ms: m.value(&INTERVAL_MS)?,
            once: m.flag(&ONCE),
            spawn: m.flag(&SPAWN),
        })
    }),
    (&STORE, |m| Ok(Command::Store { action: m.value(&STORE_ACTION)?, dir: m.get(&STORE_DIR)? })),
    (&TIMING, |m| Ok(Command::Timing { width: m.value(&WIDTH)? })),
    (&DUMP, |m| Ok(Command::Dump { trace: m.value(&TRACE_FILE)?, count: m.value(&DUMP_COUNT)? })),
];

fn machine(m: &Matches<'_>) -> Result<MachineOpts, String> {
    Ok(MachineOpts {
        width: m.value(&WIDTH)?,
        dq: m.get(&DQ)?,
        regs: m.value(&REGS)?,
        exceptions: m.value(&EXCEPTIONS)?,
        cache: m.value(&CACHE)?,
        sched: m.value(&SCHED)?,
        split_queues: m.flag(&SPLIT_QUEUES),
        predictor: m.value(&PREDICTOR)?,
        seed: m.value(&SEED)?,
    })
}

fn pins(m: &Matches<'_>) -> Result<MatrixPins, String> {
    Ok(MatrixPins {
        bench: m.get(&BENCH_PIN)?,
        width: m.get(&WIDTH_PIN)?,
        exceptions: m.get(&EXCEPTIONS_PIN)?,
        regs: m.get(&REGS_PIN)?,
        commits: m.get(&COMMITS_PIN)?,
        seed: m.value(&SEED_PIN)?,
    })
}

fn find(sub: &str) -> Option<&'static (&'static Cmd<'static>, Build)> {
    COMMANDS.iter().find(|(cmd, _)| cmd.name.strip_prefix("rfstudy ") == Some(sub))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for an unknown command, an unknown,
/// duplicate or value-less option, a stray argument, or a malformed or
/// out-of-range value.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let sub = match args.first().map(String::as_str) {
        None | Some("help" | "--help" | "-h") => return Ok(Command::Help),
        Some(sub) => sub,
    };
    let (cmd, build) = find(sub).ok_or(format!("unknown command {sub:?}; try `rfstudy help`"))?;
    match cmd.parse(&args[1..])? {
        Some(m) => build(&m),
        None => Ok(Command::Usage(cmd.usage())),
    }
}

/// The usage to show after a usage error in `rfstudy SUB ...`: that
/// subcommand's, or the full help when `SUB` is not one.
pub fn usage_for(sub: Option<&String>) -> String {
    sub.and_then(|s| find(s)).map_or_else(help, |(cmd, _)| cmd.usage())
}

/// The full `rfstudy help`: every synopsis, the shared option groups,
/// each subcommand's own options and prose, and the exit codes.
pub fn help() -> String {
    let mut out = String::from(
        "rfstudy — register-file design study simulator (HPCA'96 reproduction)\n\nUSAGE:\n",
    );
    for (cmd, _) in &COMMANDS {
        let _ = writeln!(out, "  {}", cmd.synopsis(2));
    }
    out.push_str("  rfstudy help\n");
    for group in [&MACHINE, &MATRIX] {
        let title = group.title.to_uppercase();
        let _ = write!(out, "\n{title}:\n{}", args::option_lines(group.args));
    }
    for (cmd, _) in COMMANDS.iter().filter(|(cmd, _)| !cmd.args.is_empty()) {
        let sub = cmd.name.trim_start_matches("rfstudy ").to_uppercase();
        let _ = write!(out, "\n{sub} OPTIONS:\n{}", args::option_lines(cmd.args));
        if !cmd.about.is_empty() {
            let _ = writeln!(out, "\n{}", cmd.about);
        }
    }
    out + "
EXIT STATUS:
  0  success
  1  runtime failure (simulation error, sanitizer violation, failed
     check/report gate, store verification failure, exceeded
     --deadline-secs)
  2  usage error (unknown command, option or benchmark; a duplicated
     option or one missing its value; a malformed or out-of-range value
     or RF_* knob; a `top` attach to a stream file that does not exist)
"
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workload::spec92;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_run_with_machine_options() {
        let cmd = parse(&argv(
            "run --bench tomcatv --commits 5000 --width 8 --regs 128 \
             --exceptions imprecise --cache perfect --split-queues",
        ))
        .unwrap();
        match cmd {
            Command::Run { bench, commits, deadline_secs, machine } => {
                assert_eq!(bench.name, "tomcatv");
                assert_eq!(commits, 5000);
                assert_eq!(deadline_secs, None);
                assert_eq!(machine.width, 8);
                assert_eq!(machine.regs, 128);
                assert_eq!(machine.exceptions, ExceptionModel::Imprecise);
                assert_eq!(machine.cache, CacheOrg::Perfect);
                assert!(machine.split_queues);
                let config = machine.to_config();
                assert_eq!(config.dq_size(), 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_requires_bench() {
        assert!(parse(&argv("run --commits 100")).is_err());
    }

    #[test]
    fn run_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("run --bench ora --deadline-secs 1.5")).unwrap() {
            Command::Run { deadline_secs, .. } => {
                assert_eq!(deadline_secs, Some(Duration::from_secs_f64(1.5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err =
                parse(&argv(&format!("run --bench ora --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_record_and_replay() {
        let cmd = parse(&argv("record --bench gcc1 --out /tmp/t.rft --count 42")).unwrap();
        assert_eq!(
            cmd,
            Command::Record {
                bench: spec92::gcc1(),
                out: "/tmp/t.rft".into(),
                count: 42,
                seed: 1
            }
        );
        let cmd = parse(&argv("replay --trace /tmp/t.rft --regs 64")).unwrap();
        match cmd {
            Command::Replay { trace, commits, machine } => {
                assert_eq!(trace, "/tmp/t.rft");
                assert_eq!(commits, 0);
                assert_eq!(machine.regs, 64);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_dataflow_and_timing() {
        let cmd = parse(&argv("dataflow --bench ora --window 64")).unwrap();
        assert_eq!(
            cmd,
            Command::Dataflow { bench: spec92::ora(), window: Some(64), count: 200_000 }
        );
        assert_eq!(parse(&argv("timing --width 8")).unwrap(), Command::Timing { width: 8 });
    }

    #[test]
    fn parses_check_with_and_without_options() {
        match parse(&argv("check")).unwrap() {
            Command::Check { pins, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.width, None);
                assert_eq!(pins.exceptions, None);
                assert_eq!(pins.regs, None);
                assert_eq!(pins.commits, None);
                assert_eq!(pins.seed, 12);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "check --bench compress --width 8 --exceptions imprecise --regs 64 \
             --commits 2000 --seed 7",
        ))
        .unwrap()
        {
            Command::Check { pins, .. } => {
                assert_eq!(pins.bench, Some(spec92::compress()));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(2000));
                assert_eq!(pins.seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("check --exceptions bogus")).is_err());
    }

    #[test]
    fn check_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("check --bench ora --deadline-secs 2.5")).unwrap() {
            Command::Check { deadline_secs, .. } => {
                assert_eq!(deadline_secs, Some(Duration::from_secs_f64(2.5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err = parse(&argv(&format!("check --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_model_with_pins_check_and_format() {
        match parse(&argv("model")).unwrap() {
            Command::Model { pins, check, format, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.seed, 12);
                assert!(!check);
                assert_eq!(format, ModelFormat::Text);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "model --bench tomcatv --width 8 --exceptions imprecise --regs 64 \
             --commits 3000 --seed 5 --check --format json",
        ))
        .unwrap()
        {
            Command::Model { pins, check, format, .. } => {
                assert_eq!(pins.bench, Some(spec92::tomcatv()));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(3000));
                assert_eq!(pins.seed, 5);
                assert!(check);
                assert_eq!(format, ModelFormat::Json);
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("model --format xml")).unwrap_err();
        assert!(err.contains("text or json"), "{err}");
    }

    #[test]
    fn model_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("model --check --deadline-secs 4.5")).unwrap() {
            Command::Model { check, deadline_secs, .. } => {
                assert!(check);
                assert_eq!(deadline_secs, Some(Duration::from_secs_f64(4.5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err =
                parse(&argv(&format!("model --check --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn matrix_pins_expand_the_shared_check_matrix() {
        // Unpinned: the full 9 x 2 x 2 x 2 matrix, in bench-major order.
        let pins = MatrixPins {
            bench: None,
            width: None,
            exceptions: None,
            regs: None,
            commits: Some(500),
            seed: 12,
        };
        let params = pins.expand().unwrap();
        assert_eq!(params.len(), 72);
        assert!(params.iter().all(|p| p.commits == 500 && p.seed == 12));
        assert_eq!(params[0].width, 4);
        assert_eq!(params[0].regs, 2048);
        // Pinning every dimension yields exactly one configuration.
        let pinned = MatrixPins {
            bench: Some(spec92::compress()),
            width: Some(8),
            exceptions: Some(ExceptionModel::Imprecise),
            regs: Some(64),
            commits: Some(100),
            seed: 3,
        };
        let params = pinned.expand().unwrap();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].bench, "compress");
        assert_eq!(params[0].width, 8);
        assert_eq!(params[0].exceptions, ExceptionModel::Imprecise);
        assert_eq!(params[0].regs, 64);
    }

    #[test]
    fn parses_report_with_defaults() {
        match parse(&argv("report")).unwrap() {
            Command::Report {
                ledger,
                baseline,
                window,
                format,
                out,
                prom,
                check,
                max_regress_pct,
                band_scale,
                fidelity,
                profile_drift,
            } => {
                assert_eq!(ledger, rf_obs::ledger::LEDGER_PATH);
                assert_eq!(baseline, None);
                assert_eq!(window, 5);
                assert_eq!(format, ReportFormat::Text);
                assert_eq!(out, None);
                assert_eq!(prom, None);
                assert!(!check);
                assert_eq!(max_regress_pct, 10.0);
                assert_eq!(band_scale, 1.0);
                assert_eq!(fidelity, FidelityMode::Gate);
                assert_eq!(profile_drift, FidelityMode::Warn);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_report_with_all_options() {
        match parse(&argv(
            "report --ledger /tmp/l.jsonl --baseline abc123 --window 9 \
             --format markdown --out /tmp/r.md --prom /tmp/r.prom --check \
             --max-regress-pct 25 --band-scale 3 --fidelity warn \
             --profile-drift gate",
        ))
        .unwrap()
        {
            Command::Report {
                ledger,
                baseline,
                window,
                format,
                out,
                prom,
                check,
                max_regress_pct,
                band_scale,
                fidelity,
                profile_drift,
            } => {
                assert_eq!(ledger, "/tmp/l.jsonl");
                assert_eq!(baseline.as_deref(), Some("abc123"));
                assert_eq!(window, 9);
                assert_eq!(format, ReportFormat::Markdown);
                assert_eq!(out.as_deref(), Some("/tmp/r.md"));
                assert_eq!(prom.as_deref(), Some("/tmp/r.prom"));
                assert!(check);
                assert_eq!(max_regress_pct, 25.0);
                assert_eq!(band_scale, 3.0);
                assert_eq!(fidelity, FidelityMode::Warn);
                assert_eq!(profile_drift, FidelityMode::Gate);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("report --format xml")).is_err());
        assert!(parse(&argv("report --fidelity maybe")).is_err());
        assert!(parse(&argv("report --profile-drift sometimes")).is_err());
        assert!(parse(&argv("report --window abc")).is_err());
    }

    #[test]
    fn parses_profile_with_defaults_and_pins() {
        match parse(&argv("profile")).unwrap() {
            Command::Profile { pins, format, top, out, deadline_secs } => {
                assert_eq!(pins.bench, None);
                assert_eq!(pins.width, None);
                assert_eq!(pins.exceptions, None);
                assert_eq!(pins.regs, None);
                assert_eq!(pins.commits, None);
                assert_eq!(pins.seed, 12);
                assert_eq!(format, ProfileFormat::Text);
                assert_eq!(top, 20);
                assert_eq!(out, None);
                assert_eq!(deadline_secs, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "profile --bench tomcatv --width 8 --exceptions imprecise --regs 64 \
             --commits 3000 --seed 5 --format flame --top 7 --out /tmp/p.folded",
        ))
        .unwrap()
        {
            Command::Profile { pins, format, top, out, .. } => {
                assert_eq!(pins.bench, Some(spec92::tomcatv()));
                assert_eq!(pins.width, Some(8));
                assert_eq!(pins.exceptions, Some(ExceptionModel::Imprecise));
                assert_eq!(pins.regs, Some(64));
                assert_eq!(pins.commits, Some(3000));
                assert_eq!(pins.seed, 5);
                assert_eq!(format, ProfileFormat::Flame);
                assert_eq!(top, 7);
                assert_eq!(out.as_deref(), Some("/tmp/p.folded"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("profile --format xml")).unwrap_err();
        assert!(err.contains("flame, json, or text"), "{err}");
    }

    #[test]
    fn profile_parses_a_deadline_and_rejects_malformed_ones() {
        match parse(&argv("profile --bench ora --deadline-secs 3.5")).unwrap() {
            Command::Profile { deadline_secs, .. } => {
                assert_eq!(deadline_secs, Some(Duration::from_secs_f64(3.5)));
            }
            other => panic!("unexpected {other:?}"),
        }
        for bad in ["0", "-2", "nan", "inf", "abc"] {
            let err = parse(&argv(&format!("profile --deadline-secs {bad}"))).unwrap_err();
            assert!(err.contains("positive number of seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_top_with_defaults_and_options() {
        match parse(&argv("top")).unwrap() {
            Command::Top { file, ledger, interval_ms, once, spawn } => {
                assert_eq!(file, rf_obs::live::LIVE_PATH);
                assert_eq!(ledger, rf_obs::ledger::LEDGER_PATH);
                assert_eq!(interval_ms, 500);
                assert!(!once);
                assert!(!spawn);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv(
            "top --file /tmp/live.jsonl --ledger /tmp/l.jsonl --interval-ms 100 \
             --once --spawn",
        ))
        .unwrap()
        {
            Command::Top { file, ledger, interval_ms, once, spawn } => {
                assert_eq!(file, "/tmp/live.jsonl");
                assert_eq!(ledger, "/tmp/l.jsonl");
                assert_eq!(interval_ms, 100);
                assert!(once);
                assert!(spawn);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("top --interval-ms 0")).is_err());
        assert!(parse(&argv("top --interval-ms fast")).is_err());
    }

    #[test]
    fn parses_store_actions_and_rejects_junk() {
        assert_eq!(
            parse(&argv("store stats")).unwrap(),
            Command::Store { action: StoreAction::Stats, dir: None }
        );
        assert_eq!(
            parse(&argv("store verify --dir /tmp/store")).unwrap(),
            Command::Store { action: StoreAction::Verify, dir: Some("/tmp/store".into()) }
        );
        assert_eq!(
            parse(&argv("store compact")).unwrap(),
            Command::Store { action: StoreAction::Compact, dir: None }
        );
        assert_eq!(
            parse(&argv("store gc")).unwrap(),
            Command::Store { action: StoreAction::Gc, dir: None }
        );
        let err = parse(&argv("store")).unwrap_err();
        assert!(err.contains("requires an action"), "{err}");
        let err = parse(&argv("store defrag")).unwrap_err();
        assert!(err.contains("unknown store action"), "{err}");
        assert!(parse(&argv("store stats extra")).is_err());
    }

    #[test]
    fn parses_dump() {
        let cmd = parse(&argv("dump --trace x.rft --count 10")).unwrap();
        assert_eq!(cmd, Command::Dump { trace: "x.rft".into(), count: 10 });
    }

    #[test]
    fn parses_trace_with_all_options() {
        let cmd = parse(&argv(
            "trace --bench tomcatv --commits 2000 --format chrome --window 500 \
             --out /tmp/trace.json --regs 64 --exceptions imprecise",
        ))
        .unwrap();
        match cmd {
            Command::Trace { bench, commits, format, window, out, machine } => {
                assert_eq!(bench.name, "tomcatv");
                assert_eq!(commits, 2000);
                assert_eq!(format, TraceFormat::Chrome);
                assert_eq!(window, Some(500));
                assert_eq!(out.as_deref(), Some("/tmp/trace.json"));
                assert_eq!(machine.regs, 64);
                assert_eq!(machine.exceptions, ExceptionModel::Imprecise);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_defaults_to_summary_on_stdout() {
        match parse(&argv("trace --bench ora")).unwrap() {
            Command::Trace { commits, format, window, out, .. } => {
                assert_eq!(commits, 10_000);
                assert_eq!(format, TraceFormat::Summary);
                assert_eq!(window, None);
                assert_eq!(out, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trace_rejects_unknown_format_with_an_error() {
        let err = parse(&argv("trace --bench ora --format xml")).unwrap_err();
        assert!(err.contains("unknown trace format"), "{err}");
        assert!(err.contains("chrome, text, or summary"), "{err}");
        assert!(parse(&argv("trace --format chrome")).is_err(), "bench is required");
        assert!(parse(&argv("trace --bench ora --window abc")).is_err());
    }

    #[test]
    fn usage_lists_every_subcommand() {
        for sub in [
            "list", "run", "trace", "record", "replay", "check", "model", "dataflow",
            "report", "profile", "top", "store", "timing", "dump",
        ] {
            assert!(help().contains(&format!("rfstudy {sub}")), "usage missing {sub}");
        }
    }

    #[test]
    fn rejects_junk() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --bench x --exceptions nonsense")).is_err());
        assert!(parse(&argv("run --bench x --width abc")).is_err());
        assert!(parse(&argv("run bench")).is_err());
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn strict_shapes_and_ranges_are_usage_errors() {
        for (line, needle) in [
            ("check --bogus-flag", "unknown option \"--bogus-flag\""),
            ("report --check --max-regres-pct 5", "--max-regres-pct"),
            ("run --bench ora --commits", "--commits requires a value"),
            ("run --bench ora --bench compress", "duplicate option --bench"),
            ("store stats --dir", "--dir requires a value"),
            ("run --bench ora --width 0", "--width \"0\" is not a positive integer"),
            ("run --bench ora --regs 10", "--regs \"10\" is below the minimum of 32"),
            ("run --bench ora --dq 0", "--dq \"0\""),
            ("check --regs 10", "--regs \"10\""),
            ("timing --width 0", "--width \"0\""),
            ("dataflow --bench ora --window 0", "--window \"0\""),
            ("check --bench nope", "unknown benchmark"),
            ("record --bench nope --out x.rft", "unknown benchmark"),
        ] {
            let err = parse(&argv(line)).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn help_on_a_subcommand_renders_its_table() {
        for sub in ["check", "run", "profile", "store", "list"] {
            match parse(&argv(&format!("{sub} --help"))).unwrap() {
                Command::Usage(text) => {
                    assert!(text.starts_with(&format!("usage: rfstudy {sub}")), "{text}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        let Command::Usage(run) = parse(&argv("run -h")).unwrap() else { panic!("run -h") };
        assert!(run.contains("--exceptions precise|imprecise|alpha-hybrid"), "{run}");
        assert!(run.contains("(default 200000)"), "{run}");
    }
}
