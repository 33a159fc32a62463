//! **Table III** — exact query-match accuracy before and after the
//! annotation-recovery step (`s^a -> s`).
//!
//! `Acc_before` compares the predicted annotated SQL token-by-token
//! against the gold annotated SQL; `Acc_after` compares the *recovered*
//! concrete queries canonically. The paper observes that recovery never
//! hurts and in fact raises accuracy (canonicalization merges distinct
//! but equivalent annotated forms, e.g. reordered conjunctions); the same
//! mechanism operates here. Rows: the full model and the same four
//! ablations as the paper.

use nlidb_bench::{pct, print_header, wikisql_corpus, Scale};
use nlidb_core::annotate::{AnnotateConfig, SymbolEncoding};
use nlidb_core::{Nlidb, NlidbOptions};
use nlidb_data::Example;
use nlidb_sqlir::{annotate_query, query_match, recover};

struct Recovery {
    before: f32,
    after: f32,
}

/// Runs the full pipeline (detected annotation). `before` = the predicted
/// annotated SQL matches, token-by-token, the gold query expressed under
/// the *same* (predicted) annotation map; `after` = the recovered concrete
/// query canonically matches the gold query. Recovery can only gain:
/// canonicalization merges distinct-but-equivalent annotated forms
/// (reordered conjunctions, `c_i` vs `g_k` references to one column).
fn measure(nlidb: &Nlidb, split: &[Example]) -> Recovery {
    let mut before = 0usize;
    let mut after = 0usize;
    for e in split {
        let ctx = nlidb.table_context(&e.table);
        let (pred_sa, map) = nlidb.predict_annotated_in(&e.question, &ctx);
        let gold_sa = annotate_query(&e.query, &map);
        if pred_sa == gold_sa {
            before += 1;
        }
        if let Ok(q) = recover(&pred_sa, &map) {
            if query_match(&q, &e.query) {
                after += 1;
            }
        }
    }
    let n = split.len().max(1) as f32;
    Recovery { before: before as f32 / n, after: after as f32 / n }
}

fn main() {
    let (scale, seed) = Scale::from_args();
    print_header("Table III: recovery accuracy (qm before | after s^a -> s)");
    let ds = wikisql_corpus(scale, seed);
    let cfg = scale.model_config(seed);

    let variants: Vec<(&str, NlidbOptions)> = vec![
        ("Annotated Seq2seq (Ours)", NlidbOptions { model: cfg.clone(), ..Default::default() }),
        (
            "- Half Hidden Size",
            NlidbOptions { model: cfg.clone().half_hidden(), ..Default::default() },
        ),
        (
            "- Table Header Encoding",
            NlidbOptions {
                model: cfg.clone(),
                annotate: AnnotateConfig {
                    encoding: SymbolEncoding::Appending,
                    header_encoding: false,
                },
                ..Default::default()
            },
        ),
        (
            "- Column Name Appending",
            NlidbOptions {
                model: cfg.clone(),
                annotate: AnnotateConfig {
                    encoding: SymbolEncoding::Substitution,
                    header_encoding: true,
                },
                ..Default::default()
            },
        ),
        (
            "- Copy Mechanism",
            NlidbOptions { model: cfg.clone(), copy: false, ..Default::default() },
        ),
    ];

    println!(
        "{:<28} | {:^17} | {:^17}",
        "model", "dev (before|after)", "test (before|after)"
    );
    println!("{}", "-".repeat(70));
    let mut rows = Vec::new();
    for (label, opts) in variants {
        eprintln!("training: {label}");
        let nlidb = Nlidb::train(&ds, opts);
        let dev = measure(&nlidb, &ds.dev);
        let test = measure(&nlidb, &ds.test);
        println!(
            "{label:<28} | {}  {} | {}  {}",
            pct(dev.before),
            pct(dev.after),
            pct(test.before),
            pct(test.after)
        );
        rows.push(nlidb_json::json!({
            "label": label,
            "dev_before": dev.before, "dev_after": dev.after,
            "test_before": test.before, "test_after": test.after,
        }));
    }
    println!("{}", "-".repeat(70));
    println!("paper (test): ours 75.0% -> 75.6%; recovery never reduces accuracy");
    nlidb_bench::write_result(
        "table3_recovery",
        &nlidb_json::json!({"scale": format!("{scale:?}"), "seed": seed, "rows": rows}),
    );
}
