//! Cross-crate integration tests: the full `q -> q^a -> s^a -> s ->
//! result` path, spanning data generation, mention detection, annotation,
//! translation, recovery, and execution.

use nlidb_core::serve::{PredictionCache, ServeEngine, ServeRequest};
use nlidb_core::{evaluate, ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_sqlir::{query_match, recover, Query};
use nlidb_storage::execute;

fn tiny_system(seed: u64) -> (Nlidb, nlidb_data::Dataset) {
    let mut gen_cfg = WikiSqlConfig::tiny(seed);
    gen_cfg.train_tables = 10;
    gen_cfg.questions_per_table = 8;
    let ds = generate(&gen_cfg);
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    (Nlidb::train(&ds, opts), ds)
}

#[test]
fn full_pipeline_beats_trivial_baselines_on_unseen_tables() {
    let (nlidb, ds) = tiny_system(1005);
    let preds: Vec<(Option<Query>, _)> = ds
        .dev
        .iter()
        .map(|e| (nlidb.predict(&e.question, &e.table), e))
        .collect();
    let ours = evaluate(&preds);
    // Trivial baseline: always `SELECT col0`.
    let trivial: Vec<(Option<Query>, _)> =
        ds.dev.iter().map(|e| (Some(Query::select(0)), e)).collect();
    let base = evaluate(&trivial);
    assert!(
        ours.acc_qm > base.acc_qm,
        "pipeline ({}) no better than trivial baseline ({})",
        ours.acc_qm,
        base.acc_qm
    );
    assert!(ours.acc_ex >= ours.acc_qm, "execution accuracy below query match");
}

#[test]
fn predictions_always_execute_or_fail_gracefully() {
    let (nlidb, ds) = tiny_system(1002);
    for e in ds.dev.iter().take(20) {
        if let Some(q) = nlidb.predict(&e.question, &e.table) {
            // Any recovered query must reference valid columns.
            assert!(q.select_col < e.table.num_cols());
            for c in &q.conds {
                assert!(c.col < e.table.num_cols());
            }
            // Execution must not panic (errors are allowed).
            let _ = execute(&e.table, &q);
        }
    }
}

#[test]
fn gold_annotation_path_round_trips() {
    let (nlidb, ds) = tiny_system(1003);
    // The gold target recovered through the gold map must equal the gold
    // query — the deterministic step-3 guarantee the paper relies on.
    for e in ds.dev.iter().take(30) {
        let (_, gold_sa, map) = nlidb.predict_with_gold_annotation(e);
        let q = recover(&gold_sa, &map).expect("gold annotated SQL must recover");
        assert!(
            query_match(&q, &e.query),
            "gold round trip failed for {}",
            e.question_text()
        );
    }
}

#[test]
fn batched_serving_matches_sequential_and_reports_cache_traffic() {
    // The serving scenario: questions against two distinct tables,
    // interleaved, with every question asked twice within the batch. The
    // batch must reproduce the sequential per-example path exactly, and
    // the cache traffic must show up in the trace store's counters.
    let (nlidb, ds) = tiny_system(1006);
    let by_table: Vec<&nlidb_data::Example> = ds.dev.iter().take(12).collect();
    let table_a = &*by_table[0].table;
    let table_b = ds
        .dev
        .iter()
        .map(|e| &*e.table)
        .find(|t| t.fingerprint() != table_a.fingerprint())
        .expect("dev split must span at least two distinct tables");
    // Interleave: each question asked against its own table, A/B/A/B...,
    // then the whole stream repeated (within-batch duplicates).
    let base: Vec<ServeRequest<'_>> = by_table
        .iter()
        .enumerate()
        .map(|(i, e)| ServeRequest {
            question: &e.question,
            table: if i % 2 == 0 { table_a } else { table_b },
            guided: false,
        })
        .collect();
    let mut reqs = base.clone();
    reqs.extend(&base);

    nlidb_trace::set_enabled(true);
    nlidb_trace::reset();
    let mut engine = ServeEngine::with_cache(&nlidb, PredictionCache::new(64));
    let first = engine.serve(&reqs);
    let second = engine.serve(&reqs);
    let hits = nlidb_trace::counter("serve.cache.hits");
    let misses = nlidb_trace::counter("serve.cache.misses");
    let requests_seen = nlidb_trace::counter("serve.requests");
    let snap = nlidb_trace::snapshot("batched_serving");
    nlidb_trace::set_enabled(false);

    // Byte-identical to the sequential path, in request order.
    let sequential: Vec<Option<Query>> = reqs
        .iter()
        .map(|r| nlidb.predict(r.question, r.table))
        .collect();
    assert_eq!(first, sequential, "first batch diverged from sequential predict");
    assert_eq!(second, sequential, "cached batch diverged from sequential predict");

    // Counter accounting: both serve calls are visible; the second call's
    // requests are all cache hits, and within the first call the repeated
    // half deduplicates rather than missing twice.
    assert_eq!(requests_seen, 2 * reqs.len() as u64);
    assert!(
        hits >= reqs.len() as u64,
        "expected at least one full batch of cache hits, saw {hits}"
    );
    assert!(misses >= 1, "first pass must record misses");
    assert_eq!(engine.cache().hits(), hits, "engine and trace store disagree on hits");
    assert_eq!(engine.cache().misses(), misses, "engine and trace store disagree on misses");

    // The serving stages and the grouping/dedup/insertion counters.
    for name in ["serve.batch", "serve.group", "serve.context", "serve.predict"] {
        assert!(snap.get("spans").and_then(|s| s.get(name)).is_some(), "missing span {name}");
    }
    for name in ["serve.groups", "serve.dedup", "serve.cache.insertions"] {
        assert!(nlidb_trace::counter(name) > 0, "counter {name} never fired");
    }
}

#[test]
fn pipeline_transfers_across_generated_domains() {
    // Train on one seed's tables, predict on a corpus from a different
    // seed (entirely different tables, same universe of domains). This is
    // the weaker intra-generator transfer; the OVERNIGHT harness tests
    // cross-grammar transfer.
    let (nlidb, _) = tiny_system(1004);
    let other = generate(&WikiSqlConfig::tiny(2005));
    let mut answered = 0;
    for e in other.dev.iter().take(20) {
        if nlidb.predict(&e.question, &e.table).is_some() {
            answered += 1;
        }
    }
    assert!(answered >= 10, "transfer produced too few parses: {answered}/20");
}
