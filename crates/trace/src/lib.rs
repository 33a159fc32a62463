//! # nlidb-trace
//!
//! A std-only, zero-dependency observability layer for the workspace:
//! monotonic **span timers**, named **counters**, **value histograms**,
//! and ordered **series**, all aggregated into one process-wide,
//! thread-safe registry and emitted as deterministic-schema JSON through
//! `nlidb-json`.
//!
//! ## The `NLIDB_TRACE` gate
//!
//! Everything is off by default. Tracing turns on when the process runs
//! with `NLIDB_TRACE=1` (or any value other than `0`/`false`/`off`), or
//! when a test calls [`set_enabled`]. While off, every instrumentation
//! call reduces to a single relaxed atomic load — the hot paths
//! (autograd ops, executor rows) pay no lock, no clock read, and no
//! allocation.
//!
//! ## Determinism contract
//!
//! Instrumentation is strictly *read-only* with respect to the program
//! under observation: it never draws from the workspace PRNG, never
//! reorders floating-point work, and never branches computation on the
//! trace state. Trained parameters, predictions, and experiment records
//! are therefore **byte-identical** with tracing on or off
//! (`crates/core/tests/trace_determinism.rs` pins this). The trace
//! *values* (durations, throughput) are wall-clock measurements and vary
//! run to run; the JSON **schema** — which sections exist, how entries
//! are keyed and ordered — is deterministic: all four sections are
//! always present and every map iterates in sorted key order
//! (`BTreeMap`).
//!
//! ## Instrument kinds
//!
//! | kind | call | aggregation |
//! |---|---|---|
//! | span | [`span`] (RAII guard) | count, total/min/max ns per name |
//! | counter | [`count`] | saturating sum per name |
//! | value | [`record`] | count/sum/min/max + power-of-two histogram |
//! | series | [`series`] | append-in-order `Vec<f64>` per name |
//!
//! Spans answer "where does the time go" (per-op autograd cost,
//! pipeline stages); counters answer "how much work happened" (rows
//! scanned, pool tasks); values answer "how is this quantity
//! distributed" (graph sizes); series answer "how did it evolve"
//! (per-epoch loss / throughput).
//!
//! ## Example
//!
//! ```
//! nlidb_trace::set_enabled(true);
//! nlidb_trace::reset();
//! {
//!     let _t = nlidb_trace::span("demo.work");
//!     nlidb_trace::count("demo.items", 3);
//!     nlidb_trace::series("demo.loss", 0.5);
//! }
//! let report = nlidb_trace::snapshot("demo");
//! assert!(report.get("spans").and_then(|s| s.get("demo.work")).is_some());
//! nlidb_trace::set_enabled(false);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use nlidb_json::Json;

/// Tri-state for the global gate: unresolved / off / on.
const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Whether tracing is on. First call resolves `NLIDB_TRACE` from the
/// environment; afterwards this is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    let on = std::env::var("NLIDB_TRACE")
        .map(|v| {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
        })
        .unwrap_or(false);
    // Racing initializers resolve the same environment; last store wins.
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Programmatic override of the `NLIDB_TRACE` gate (tests, the serving
/// benchmark).
pub fn set_enabled(on: bool) {
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl SpanStat {
    fn add(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }
}

/// Aggregated statistics plus a power-of-two histogram for one value name.
#[derive(Debug, Clone, Default)]
struct ValueStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Bucket `e` counts values `v` with `2^e <= |v| < 2^(e+1)`; zero
    /// (and non-finite) values land in the sentinel bucket `i32::MIN`.
    buckets: BTreeMap<i32, u64>,
}

impl ValueStat {
    fn add(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let bucket = if v != 0.0 && v.is_finite() {
            v.abs().log2().floor() as i32
        } else {
            i32::MIN
        };
        *self.buckets.entry(bucket).or_insert(0) += 1;
    }
}

/// The process-wide aggregation registry. `BTreeMap` keeps every section
/// in sorted key order, which is what makes the emitted schema
/// deterministic.
#[derive(Default)]
struct Registry {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    values: BTreeMap<&'static str, ValueStat>,
    series: BTreeMap<&'static str, Vec<f64>>,
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// RAII span guard: measures from construction to drop and folds the
/// elapsed nanoseconds into the registry under its name. Inert (no clock
/// read, no lock) when tracing is off.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    start: Option<(&'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.start.take() {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            registry().spans.entry(name).or_default().add(ns);
        }
    }
}

/// Starts a monotonic span timer under `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span { start: enabled().then(|| (name, Instant::now())) }
}

/// Adds `by` to the named counter.
#[inline]
pub fn count(name: &'static str, by: u64) {
    if enabled() {
        let mut r = registry();
        let c = r.counters.entry(name).or_insert(0);
        *c = c.saturating_add(by);
    }
}

/// Records one observation of a named value (histogram + summary stats).
#[inline]
pub fn record(name: &'static str, value: f64) {
    if enabled() {
        registry().values.entry(name).or_default().add(value);
    }
}

/// Appends one point to a named ordered series (loss curves, per-epoch
/// throughput). Points keep their append order in the report.
#[inline]
pub fn series(name: &'static str, value: f64) {
    if enabled() {
        registry().series.entry(name).or_default().push(value);
    }
}

/// Reads the current value of a named counter (0 when absent or when
/// tracing never recorded it). Lets tests assert on counters (e.g.
/// `serve.cache.hits`) without parsing a snapshot.
pub fn counter(name: &str) -> u64 {
    registry().counters.get(name).copied().unwrap_or(0)
}

/// Clears every aggregate in the registry (the gate is untouched).
pub fn reset() {
    let mut r = registry();
    r.spans.clear();
    r.counters.clear();
    r.values.clear();
    r.series.clear();
}

/// Builds the deterministic-schema JSON report.
///
/// Shape (all four sections always present, keys sorted):
///
/// ```json
/// {
///   "run": "<run>",
///   "spans":    { "<name>": {"count": u, "total_ns": u, "min_ns": u, "max_ns": u}, ... },
///   "counters": { "<name>": u, ... },
///   "values":   { "<name>": {"count": u, "sum": f, "min": f, "max": f,
///                            "log2_buckets": [[exp, count], ...]}, ... },
///   "series":   { "<name>": [f, ...], ... }
/// }
/// ```
pub fn snapshot(run: &str) -> Json {
    let r = registry();
    let spans = Json::Obj(
        r.spans
            .iter()
            .map(|(name, s)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("count", Json::Int(s.count as i64)),
                        ("total_ns", Json::Int(s.total_ns.min(i64::MAX as u64) as i64)),
                        ("min_ns", Json::Int(s.min_ns.min(i64::MAX as u64) as i64)),
                        ("max_ns", Json::Int(s.max_ns.min(i64::MAX as u64) as i64)),
                    ]),
                )
            })
            .collect(),
    );
    let counters = Json::Obj(
        r.counters
            .iter()
            .map(|(name, &c)| (name.to_string(), Json::Int(c.min(i64::MAX as u64) as i64)))
            .collect(),
    );
    let values = Json::Obj(
        r.values
            .iter()
            .map(|(name, v)| {
                let buckets = Json::Arr(
                    v.buckets
                        .iter()
                        .map(|(&e, &c)| {
                            Json::Arr(vec![Json::Int(e as i64), Json::Int(c as i64)])
                        })
                        .collect(),
                );
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), Json::Int(v.count as i64)),
                        ("sum".into(), Json::Float(v.sum)),
                        ("min".into(), Json::Float(v.min)),
                        ("max".into(), Json::Float(v.max)),
                        ("log2_buckets".into(), buckets),
                    ]),
                )
            })
            .collect(),
    );
    let series = Json::Obj(
        r.series
            .iter()
            .map(|(name, pts)| {
                (name.to_string(), Json::Arr(pts.iter().map(|&p| Json::Float(p)).collect()))
            })
            .collect(),
    );
    Json::Obj(vec![
        ("run".into(), Json::Str(run.to_string())),
        ("spans".into(), spans),
        ("counters".into(), counters),
        ("values".into(), values),
        ("series".into(), series),
    ])
}

/// Writes the report for `run` to `results/trace_<run>.json` (pretty,
/// trailing newline) and returns the path.
pub fn write(run: &str) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{run}.json"));
    let mut text = snapshot(run).pretty();
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Writes the report only when tracing is on; logs the path to stderr.
/// The one-liner experiment binaries call at exit.
pub fn write_if_enabled(run: &str) {
    if !enabled() {
        return;
    }
    match write(run) {
        // lint:allow(no-print-in-lib): operator notice on stderr, reachable
        // only when NLIDB_TRACE is set; never on the untraced path.
        Ok(path) => eprintln!("(wrote {})", path.display()),
        // lint:allow(no-print-in-lib): failing to persist a trace must be
        // visible but must not abort the experiment that produced it.
        Err(e) => eprintln!("trace: could not write report for {run}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests: the registry and the gate are process-global.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _t = span("off.span");
            count("off.counter", 10);
            record("off.value", 1.0);
            series("off.series", 2.0);
        }
        let j = snapshot("off");
        assert_eq!(j.get("spans"), Some(&Json::Obj(vec![])));
        assert_eq!(j.get("counters"), Some(&Json::Obj(vec![])));
        assert_eq!(j.get("values"), Some(&Json::Obj(vec![])));
        assert_eq!(j.get("series"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn spans_and_counters_aggregate_by_name() {
        let _g = lock();
        set_enabled(true);
        reset();
        for _ in 0..3 {
            let _t = span("t.spin");
        }
        count("t.items", 2);
        count("t.items", 5);
        let j = snapshot("agg");
        let spin = j.get("spans").and_then(|s| s.get("t.spin")).expect("span present");
        assert_eq!(spin.get("count").and_then(Json::as_i64), Some(3));
        let total = spin.get("total_ns").and_then(Json::as_i64).unwrap();
        let min = spin.get("min_ns").and_then(Json::as_i64).unwrap();
        let max = spin.get("max_ns").and_then(Json::as_i64).unwrap();
        assert!(min <= max && max <= total);
        assert_eq!(
            j.get("counters").and_then(|c| c.get("t.items")).and_then(Json::as_i64),
            Some(7)
        );
        set_enabled(false);
    }

    #[test]
    fn values_histogram_and_series_order() {
        let _g = lock();
        set_enabled(true);
        reset();
        for v in [0.0, 1.5, 3.0, -3.0, 1024.0] {
            record("t.val", v);
        }
        for p in [9.0, 5.0, 7.0] {
            series("t.loss", p);
        }
        let j = snapshot("hist");
        let val = j.get("values").and_then(|v| v.get("t.val")).expect("value present");
        assert_eq!(val.get("count").and_then(Json::as_i64), Some(5));
        assert_eq!(val.get("min").and_then(Json::as_f64), Some(-3.0));
        assert_eq!(val.get("max").and_then(Json::as_f64), Some(1024.0));
        let buckets = val.get("log2_buckets").and_then(Json::as_arr).unwrap();
        // 0.0 -> sentinel; 1.5 -> e0; 3.0 and -3.0 -> e1; 1024.0 -> e10.
        let pairs: Vec<(i64, i64)> = buckets
            .iter()
            .map(|b| {
                let b = b.as_arr().unwrap();
                (b[0].as_i64().unwrap(), b[1].as_i64().unwrap())
            })
            .collect();
        assert_eq!(pairs, vec![(i32::MIN as i64, 1), (0, 1), (1, 2), (10, 1)]);
        let loss = j.get("series").and_then(|s| s.get("t.loss")).unwrap();
        let pts: Vec<f64> = loss.as_arr().unwrap().iter().map(|p| p.as_f64().unwrap()).collect();
        assert_eq!(pts, vec![9.0, 5.0, 7.0], "series keeps append order");
        set_enabled(false);
    }

    #[test]
    fn snapshot_roundtrips_through_the_parser_with_sorted_keys() {
        let _g = lock();
        set_enabled(true);
        reset();
        count("z.last", 1);
        count("a.first", 1);
        {
            let _t = span("m.mid");
        }
        let j = snapshot("round");
        let text = j.to_string();
        let parsed = Json::parse(&text).expect("trace JSON parses");
        assert_eq!(parsed, j);
        // Counter keys are sorted regardless of insertion order.
        let keys: Vec<&str> = parsed
            .get("counters")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["a.first", "z.last"]);
        // Top-level sections are fixed and always present.
        let top: Vec<&str> =
            parsed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(top, vec!["run", "spans", "counters", "values", "series"]);
        set_enabled(false);
    }

    #[test]
    fn counter_reads_current_value() {
        let _g = lock();
        set_enabled(true);
        reset();
        assert_eq!(counter("c.read"), 0, "absent counter reads zero");
        count("c.read", 3);
        count("c.read", 4);
        assert_eq!(counter("c.read"), 7);
        set_enabled(false);
        count("c.read", 100);
        assert_eq!(counter("c.read"), 7, "disabled counts do not accumulate");
    }

    #[test]
    fn reset_clears_aggregates() {
        let _g = lock();
        set_enabled(true);
        count("r.c", 4);
        reset();
        let j = snapshot("reset");
        assert_eq!(j.get("counters"), Some(&Json::Obj(vec![])));
        set_enabled(false);
    }
}
