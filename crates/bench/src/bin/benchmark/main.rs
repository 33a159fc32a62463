//! The NLIDB serving benchmark: four seeded workloads driven through the
//! TCP server, an answer-checked end-to-end metric set, and a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload <bulk_unique|ask_unique|ask_hot|ask_large> --seed <u64> \
//!     --seconds <1-60> [--trace <0|1>]
//! ```
//!
//! Each run uses the served model (`Scale::Small`, training seed 42, so
//! every workload serves the same parameters; trained once per build in
//! a child process, see [`model_checkpoint`]), loads it as the in-process
//! reference, and generates the served corpus from `--seed`, with
//! streams sized for `--seconds`. An untraced run (`--trace 0`) sets the
//! server up, drives one closed-loop load phase of `--seconds`, sends the
//! fixed evaluation set that `acc_ex` scores, times four more set-ups,
//! and recomputes the window's first 200 answers in-process, requiring
//! the server's SQL byte for byte. A traced run (`--trace 1`)
//! replays the head of the streams layer by layer instead (see
//! [`replay`]). Every metric is printed as `name value unit`; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and the declared `metrics`. Results go to
//! `results/benchmark_<workload>.json` (traced: `benchmark_trace_…`).
//!
//! `README.md` beside this file has the metric and workload tables, how
//! to compare two commits, and the first measurements.

mod client;
mod load;
mod replay;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::fs::File;
use std::hash::Hasher;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use nlidb_bench::Scale;
use nlidb_core::{Nlidb, NlidbOptions};
use nlidb_json::{json, Json};
use nlidb_tensor::pool;

use workload::{Plan, Workload};

/// Seed of the training corpus and model: fixed, so every workload and
/// every `--seed` serve the same parameters.
const TRAIN_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The model every server in a run loads, plus the in-process reference
/// loaded from the same checkpoint (byte-identical parameters).
pub struct Model {
    /// The saved checkpoint directory.
    pub ckpt: PathBuf,
    /// `Nlidb::load` of `ckpt`, for the correctness gate and the replays.
    pub reference: Nlidb,
    /// Seconds spent generating the training and served corpora.
    pub corpus_s: f64,
    /// Seconds spent training and saving the model; `None` when an
    /// earlier run's checkpoint was reused.
    pub train_s: Option<f64>,
}

/// What a run measured.
pub struct Report {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed: error or `overloaded` replies, transport
    /// errors, and answers that differ from the in-process reference.
    pub failed: u64,
    /// Reasons the run is not correct; empty on a clean run.
    pub problems: Vec<String>,
    /// The declared metrics.
    pub metrics: Vec<Metric>,
    /// Further numbers printed and recorded but not declared.
    pub info: Vec<Metric>,
    /// Mode-specific detail for the results file.
    pub record: Json,
}

impl Report {
    /// No failed operation and nothing else wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// First argument of the training child process, followed by the
/// directory to save the model to (see [`model_checkpoint`]).
const TRAIN_INTO: &str = "--train-into";

/// The served model's checkpoint, trained once per build of this
/// program: training is deterministic, so a run reuses
/// `results/benchmark_model_<hash of this executable>` when an earlier
/// run of the same build left it there, and the load window rather than
/// seconds of training fills the run. `retrain` trains regardless (the
/// traced run reports the training time). Training runs in a child
/// process of this executable, so its memory never reaches this
/// process's `peak_rss_mb`, whether or not a checkpoint was reused.
/// Returns the checkpoint, the corpus seconds, the training seconds
/// (`None` when reused) and the training tables' fingerprints.
pub fn model_checkpoint(
    retrain: bool,
) -> Result<(PathBuf, f64, Option<f64>, BTreeSet<u64>), String> {
    let t0 = Instant::now();
    let ds = nlidb_bench::wikisql_corpus(Scale::Small, TRAIN_SEED);
    let corpus_s = t0.elapsed().as_secs_f64();
    let seen = ds.train.iter().map(|e| e.table.fingerprint()).collect();
    let dir = PathBuf::from(format!(
        "results/benchmark_model_{:016x}",
        executable_hash()?
    ));
    if dir.is_dir() && !retrain {
        return Ok((dir, corpus_s, None, seen));
    }
    // Saved aside and renamed into place, so the directory only ever
    // holds a complete checkpoint.
    let t1 = Instant::now();
    let tmp = PathBuf::from(format!("{}.tmp{}", dir.display(), std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("find own executable: {e}"))?;
    let status = Command::new(exe)
        .arg(TRAIN_INTO)
        .arg(&tmp)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("start the training process: {e}"))?;
    if !status.success() {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(format!("the training process failed ({status})"));
    }
    let train_s = t1.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::rename(&tmp, &dir).map_err(|e| format!("place checkpoint: {e}"))?;
    Ok((dir, corpus_s, Some(train_s), seen))
}

/// The training child process: trains the served model on the training
/// corpus and saves it to `dir`.
fn train_into(dir: &Path) -> Result<(), String> {
    nlidb_trace::set_enabled(false);
    let ds = nlidb_bench::wikisql_corpus(Scale::Small, TRAIN_SEED);
    let opts = NlidbOptions {
        model: Scale::Small.model_config(TRAIN_SEED),
        ..NlidbOptions::default()
    };
    Nlidb::train(&ds, opts)
        .save(dir)
        .map_err(|e| format!("save checkpoint: {e}"))
}

/// A hash of this program's executable, read in chunks so that hashing
/// it adds nothing to `peak_rss_mb`.
fn executable_hash() -> Result<u64, String> {
    let fail = |e: std::io::Error| format!("read own executable: {e}");
    let mut file = std::env::current_exe().and_then(File::open).map_err(fail)?;
    let mut hasher = DefaultHasher::new();
    let mut chunk = [0u8; 1 << 16];
    loop {
        match file.read(&mut chunk).map_err(fail)? {
            0 => return Ok(hasher.finish()),
            n => hasher.write(chunk.get(..n).unwrap_or_default()),
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: benchmark --workload <bulk_unique|ask_unique|ask_hot|ask_large> \
                     --seed <u64> --seconds <1-60> [--trace <0|1>]";

/// Longest load window. The streams grow with the window, so this bounds
/// the memory and generation time of a run's inputs; it also keeps the
/// server's `stats` reply, one row per registered table, under the frame
/// limit (a 120 s `bulk_unique` window registers 9,000 tables and fails).
const MAX_SECONDS: u64 = 60;

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s = value.parse().ok().filter(|s| (1..=MAX_SECONDS).contains(s));
                seconds = Some(s.ok_or_else(bad)?)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

fn run_benchmark(args: &Args) -> Result<Report, String> {
    // Program-side tracing stays off in both modes (an inherited
    // NLIDB_TRACE=1 would skew every number); the traced mode records
    // its own spans from the outside.
    nlidb_trace::set_enabled(false);
    let (ckpt, train_corpus_s, train_s, seen) = model_checkpoint(args.trace)?;

    let t = Instant::now();
    let sizes = args.workload.full_sizes(args.seconds);
    let plan = Plan::from_seed(args.workload, args.seed, &sizes)?;
    let corpus_s = train_corpus_s + t.elapsed().as_secs_f64();
    if plan.fingerprints.iter().any(|fp| seen.contains(fp)) {
        return Err(
            "a served table was seen in training; the run would not be a transfer run".into(),
        );
    }
    let reference = Nlidb::load(&ckpt).map_err(|e| format!("load checkpoint: {e}"))?;
    let model = Model {
        ckpt,
        reference,
        corpus_s,
        train_s,
    };
    if args.trace {
        replay::measure(&plan, &model, SETUP_REPS, replay::REPLAY_QUESTIONS)
    } else {
        load::measure(&plan, &model, Duration::from_secs(args.seconds), SETUP_REPS)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = argv.as_slice() {
        if flag == TRAIN_INTO {
            return match train_into(Path::new(dir)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(1)
                }
            };
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run_benchmark(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    for m in report.metrics.iter().chain(&report.info) {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &report.problems {
        eprintln!("benchmark: {p}");
    }
    let name = match args.trace {
        true => format!("benchmark_trace_{}", args.workload.name()),
        false => format!("benchmark_{}", args.workload.name()),
    };
    let record = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "pool_threads": pool::default_threads(),
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": Json::Arr(report.problems.iter().map(|p| Json::Str(p.clone())).collect()),
        "metrics": metrics_json(&report.metrics),
        "info": metrics_json(&report.info),
        "detail": report.record.clone(),
    });
    nlidb_bench::write_result(&name, &record);
    let last = json!({
        "correct": report.correct(),
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics_json(&report.metrics),
    });
    println!("{last}");
    match report.correct() {
        true => ExitCode::SUCCESS,
        false => ExitCode::from(1),
    }
}
