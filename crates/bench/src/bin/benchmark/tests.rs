//! Sync test: `BENCHMARK.json` and the program agree. Every declared
//! workload exists, and each workload, measured in-process on a tiny
//! model for about a second, fails nothing and prints exactly the
//! declared metric names.

use std::path::{Path, PathBuf};
use std::time::Duration;

use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_json::Json;

use crate::workload::{Plan, Workload};
use crate::{load, replay, Model, Report};

/// `BENCHMARK.json` at the repository root, found from this package.
fn benchmark_json() -> Json {
    let start = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = start
        .ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
        .expect("BENCHMARK.json above the package directory");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is a list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

fn printed(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

fn tiny_model(dir: &Path) -> Model {
    let mut cfg = WikiSqlConfig::tiny(77);
    cfg.train_tables = 8;
    cfg.questions_per_table = 6;
    let ds = generate(&cfg);
    let opts = NlidbOptions {
        model: ModelConfig::tiny(),
        ..NlidbOptions::default()
    };
    Nlidb::train(&ds, opts)
        .save(dir)
        .expect("save tiny checkpoint");
    let reference = Nlidb::load(dir).expect("load tiny checkpoint");
    Model {
        ckpt: dir.to_path_buf(),
        reference,
        corpus_s: 0.01,
        train_s: Some(0.5),
    }
}

#[test]
fn benchmark_json_matches_the_program() {
    let doc = benchmark_json();
    let declared: Vec<String> = names(&doc, "workloads");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared, ours, "BENCHMARK.json workloads");
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert!(per_layer.len() <= 128);

    let dir = std::env::temp_dir().join(format!("nlidb-benchmark-sync-{}", std::process::id()));
    let model = tiny_model(&dir);
    for w in Workload::ALL {
        // About four times what the tiny model answers in the window on a
        // 2-vCPU host; `ask_hot` is held under 1,000/s by the server's
        // 2 ms micro-batch linger.
        let questions = match w {
            Workload::BulkUnique => 3200,
            Workload::AskUnique => 1400,
            Workload::AskHot => 3600,
            Workload::AskLarge => 1300,
        };
        let plan = Plan::from_seed(w, 3, &w.tiny_sizes(questions)).expect("tiny plan");
        let untraced =
            load::measure(&plan, &model, Duration::from_secs(1), 1).expect("untraced run");
        assert_eq!(untraced.failed, 0, "{}: {:?}", w.name(), untraced.problems);
        // One second leaves fewer samples than a p90 needs on the slower
        // workloads; nothing else may go wrong.
        let unexpected: Vec<&String> = untraced
            .problems
            .iter()
            .filter(|p| !p.starts_with(load::FEW_SAMPLES))
            .collect();
        assert!(unexpected.is_empty(), "{}: {unexpected:?}", w.name());
        assert_eq!(
            printed(&untraced),
            end_to_end,
            "{}: end-to-end metric names",
            w.name()
        );

        let traced = replay::measure(&plan, &model, 1, 24).expect("traced run");
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.problems);
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.problems);
        assert_eq!(
            printed(&traced),
            per_layer,
            "{}: per-layer metric names",
            w.name()
        );
        let agree = traced
            .metrics
            .iter()
            .find(|m| m.name == "trace.agree")
            .map(|m| m.value);
        assert_eq!(
            agree,
            Some(1.0),
            "{}: replay must reproduce the program",
            w.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn command_line_is_parsed_strictly() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let parsed = crate::parse_args(&args("--workload ask_hot --seed 7 --seconds 3 --trace 1"))
        .expect("valid command line");
    assert_eq!(parsed.workload, Workload::AskHot);
    assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
    for bad in [
        "",
        "--seed 1",
        "--workload ask_hot --seed 7",
        "--workload ask_hot --seconds 0",
        "--workload ask_hot --seconds 61",
        "--workload nope",
        "--workload ask_hot --trace yes",
        "--workload ask_hot --x 1",
    ] {
        assert!(crate::parse_args(&args(bad)).is_err(), "accepted '{bad}'");
    }
}
