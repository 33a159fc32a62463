//! Bench-regression gate: compares a fresh `bench_components.json`
//! against the committed baseline in `results/bench_baseline.json` and
//! fails on performance regressions.
//!
//! ```text
//! bench_gate <current.json> <baseline.json>
//! ```
//!
//! Both paths are explicit because `cargo bench` runs benchmarks with the
//! package directory as CWD (so the fresh numbers land under
//! `crates/bench/results/`), while `cargo run` bins keep the invocation
//! directory (where the committed baseline lives under `results/`).
//!
//! The gate compares `min_ns` — the fastest timed batch — because on a
//! loaded host the minimum is far less sensitive to scheduler noise than
//! the median of a handful of smoke batches. One rule per baseline row:
//! the current `min_ns` may not exceed `baseline * limit`, where `limit`
//! is the row's optional `floor_ratio` field if present, else the default
//! [`REGRESSION_CEILING`] (1.25, i.e. a >25% slowdown fails). The
//! committed baseline pins `tensor/matmul_256_parallel` at `floor_ratio`
//! 0.75: the blocked kernel must stay at least 1.33x faster than the
//! pre-blocked scalar numbers the baseline records (a kernel revert
//! measures ~1.0x; the margin absorbs the ~1.7x run-to-run throughput
//! drift of single-core CI hosts, which a tight cross-run floor cannot
//! survive).
//!
//! A baseline row may instead carry `ratio_to: <row>` and `max_ratio`:
//! the gate then divides the row's current `min_ns` by the named row's
//! current `min_ns` from the same run, and fails above `max_ratio`. Both
//! rows see the same host load, so the ratio survives the cross-run drift
//! an absolute pin cannot. The committed baseline holds
//! `mention/adversarial_influence` (one forward and an input-only
//! backward on a frozen tape) to 0.85 of `mention/influence_training_tape`
//! (the same forward with a backward into every parameter); a revert to
//! the full backward reads about 1.0. It also holds
//! `mention/classifier_predict` (a forward on a frozen tape, which binds
//! each parameter once) to 0.9 of `mention/classifier_forward_training_tape`
//! (the same forward on a training tape, which copies every binding).
//!
//! Only rows named in the baseline are gated; the baseline is the policy
//! file. A baseline row missing from the current results is an error —
//! a silently renamed benchmark must not pass vacuously — and so is a
//! missing `ratio_to` partner.

use nlidb_json::Json;

/// Maximum tolerated `current/baseline` ratio for `min_ns` (a >25%
/// slowdown on any gated row fails verification).
const REGRESSION_CEILING: f64 = 1.25;

struct Row {
    min_ns: f64,
    rule: Rule,
}

/// How a baseline row gates its current measurement.
enum Rule {
    /// Current `min_ns` must be <= baseline `min_ns` * limit (the row's
    /// `floor_ratio`, else [`REGRESSION_CEILING`]).
    Baseline(f64),
    /// Current `min_ns` must be <= `max` * the current `min_ns` of row
    /// `to`.
    RatioTo { to: String, max: f64 },
}

fn load_rows(path: &str) -> Vec<(String, Row)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    parse_rows(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn parse_rows(text: &str) -> Result<Vec<(String, Row)>, String> {
    let json = Json::parse(text).map_err(|e| format!("parse: {e:?}"))?;
    let rows = json.get("rows").and_then(Json::as_arr).ok_or("no `rows` array")?;
    rows.iter()
        .map(|r| {
            let name: String = r.req("name").map_err(|e| format!("row name: {e:?}"))?;
            let min_ns: f64 = r.req("min_ns").map_err(|e| format!("{name}: min_ns: {e:?}"))?;
            let rule = match r.get("ratio_to") {
                Some(to) => {
                    let to = to.as_str().ok_or(format!("{name}: ratio_to is not a string"))?;
                    let max: f64 =
                        r.req("max_ratio").map_err(|e| format!("{name}: max_ratio: {e:?}"))?;
                    Rule::RatioTo { to: to.to_string(), max }
                }
                None => Rule::Baseline(
                    r.get("floor_ratio").and_then(Json::as_f64).unwrap_or(REGRESSION_CEILING),
                ),
            };
            Ok((name, Row { min_ns, rule }))
        })
        .collect()
}

fn die(msg: &str) -> ! {
    eprintln!("bench_gate: {msg}");
    std::process::exit(1)
}

/// Checks every baseline row against the current run, printing one table
/// line per row; returns the failures.
fn gate(current: &[(String, Row)], baseline: &[(String, Row)], current_path: &str) -> Vec<String> {
    let min_of = |name: &str| current.iter().find(|(n, _)| n == name).map(|(_, r)| r.min_ns);
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let Some(cur) = min_of(name) else {
            failures.push(format!("{name}: missing from {current_path}"));
            println!("{name:<32} {:>14.0} {:>14} {:>8}  MISSING", base.min_ns, "-", "-");
            continue;
        };
        let (reference, limit, against) = match &base.rule {
            Rule::Baseline(limit) => (base.min_ns, *limit, "the baseline".to_string()),
            Rule::RatioTo { to, max } => match min_of(to) {
                Some(partner) => (partner, *max, format!("{to} in this run")),
                None => {
                    failures
                        .push(format!("{name}: ratio partner {to} missing from {current_path}"));
                    println!("{name:<32} {:>14} {cur:>14.0} {:>8}  MISSING {to}", "-", "-");
                    continue;
                }
            },
        };
        let ratio = cur / reference;
        let ok = ratio <= limit;
        let verdict = if ok { "ok" } else { "FAIL" };
        println!("{name:<32} {reference:>14.0} {cur:>14.0} {ratio:>8.3}  {verdict} (<= {limit})");
        if !ok {
            failures.push(format!(
                "{name}: min_ns {cur:.0} is {ratio:.3}x {against} ({reference:.0}; limit {limit})"
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, current_path, baseline_path] = args.as_slice() else {
        die("usage: bench_gate <current.json> <baseline.json>");
    };
    let current = load_rows(current_path);
    let baseline = load_rows(baseline_path);

    println!(
        "{:<32} {:>14} {:>14} {:>8}  verdict",
        "benchmark", "reference min", "current min", "ratio"
    );
    println!("{}", "-".repeat(84));
    let failures = gate(&current, &baseline, current_path);
    if !failures.is_empty() {
        eprintln!("bench_gate: {} gated benchmark(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("bench_gate: all {} gated benchmarks within limits", baseline.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(json: &str) -> Vec<(String, Row)> {
        parse_rows(json).unwrap()
    }

    const CURRENT: &str = r#"{"rows": [
        {"name": "fast", "min_ns": 70.0},
        {"name": "slow", "min_ns": 100.0}
    ]}"#;

    fn ratio_baseline(to: &str, max: f64) -> String {
        let row = format!(r#""name": "fast", "min_ns": 1.0, "ratio_to": "{to}", "max_ratio": {max}"#);
        format!(r#"{{"rows": [{{{row}}}]}}"#)
    }

    #[test]
    fn a_ratio_row_under_its_limit_passes() {
        let failures = gate(&rows(CURRENT), &rows(&ratio_baseline("slow", 0.85)), "current");
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn a_ratio_row_over_its_limit_fails() {
        let failures = gate(&rows(CURRENT), &rows(&ratio_baseline("slow", 0.65)), "current");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("0.700x slow"), "{failures:?}");
    }

    #[test]
    fn a_missing_ratio_partner_is_an_error() {
        let failures = gate(&rows(CURRENT), &rows(&ratio_baseline("gone", 0.85)), "current");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ratio partner gone missing"), "{failures:?}");
    }

    #[test]
    fn baseline_rows_keep_the_ceiling_and_floor_rules() {
        let baseline = rows(
            r#"{"rows": [
                {"name": "fast", "min_ns": 60.0},
                {"name": "slow", "min_ns": 150.0, "floor_ratio": 0.5}
            ]}"#,
        );
        let failures = gate(&rows(CURRENT), &baseline, "current");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("slow:"), "{failures:?}");
    }
}
