//! End-to-end check of the tracing determinism contract: training an
//! identically-seeded model with `NLIDB_TRACE` off and on must produce
//! byte-identical parameter stores and equal losses — instrumentation
//! observes the computation, it never participates in it (no PRNG draws,
//! no reordered float reductions).
//!
//! The same holds for the whole system: a tiny `Nlidb` trained and
//! evaluated with tracing off and on yields the same stores, dev
//! predictions and `Acc_ex` bits.
//!
//! Also sanity-checks the trace snapshot itself: it must round-trip
//! through the in-tree JSON parser and carry the instrument families the
//! tentpole promises (autograd op spans, backward stats, training-loop
//! series, pipeline stage spans, executor counters).

use nlidb_core::mention::classifier::MentionClassifier;
use nlidb_core::pipeline::Translator;
use nlidb_core::{evaluate, ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::stream::InMemorySource;
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_data::{CorpusPlan, Dataset, Example, ShardedCorpusConfig, Split};
use nlidb_json::Json;
use nlidb_sqlir::Query;
use nlidb_text::{tokenize, EmbeddingSpace};

/// Serializes tests that flip the global trace switch.
fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn training_data() -> Vec<(Vec<String>, Vec<String>, bool)> {
    [
        ("which film was directed by antczak?", "director", true),
        ("which film was directed by antczak?", "film name", false),
        ("how many seats in 1990?", "seats", true),
        ("how many seats in 1990?", "year", true),
        ("how many seats in 1990?", "party", false),
        ("what is the capital of texas?", "capital", true),
    ]
    .iter()
    .map(|(q, c, y)| (tokenize(q), tokenize(c), *y))
    .collect()
}

#[test]
fn training_is_bitwise_equal_with_tracing_on_and_off() {
    let _guard = trace_lock();
    let cfg = ModelConfig::tiny();
    let data = training_data();
    let ds = generate(&WikiSqlConfig::tiny(21));
    let vocab = nlidb_core::vocab::build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);

    nlidb_trace::set_enabled(false);
    let mut plain = MentionClassifier::new(&cfg, vocab.clone(), &space);
    let loss_off = plain.train(&data, 2);

    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let mut traced = MentionClassifier::new(&cfg, vocab, &space);
    let loss_on = traced.train(&data, 2);
    let snap = nlidb_trace::snapshot("trace_determinism");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    assert_eq!(loss_off.to_bits(), loss_on.to_bits(), "losses diverged");
    assert_eq!(
        plain.store.to_json_string(),
        traced.store.to_json_string(),
        "trained parameters diverged between NLIDB_TRACE off and on"
    );

    // The snapshot must round-trip through the in-tree parser …
    let text = snap.pretty();
    let parsed = Json::parse(&text).expect("trace snapshot must be valid JSON");
    // … and carry the promised instrument families.
    let spans = parsed.get("spans").expect("spans section");
    let Json::Obj(span_entries) = spans else { panic!("spans must be an object") };
    assert!(
        span_entries.iter().any(|(k, _)| k.starts_with("graph.fwd.")),
        "no autograd forward-op spans recorded"
    );
    assert!(span_entries.iter().any(|(k, _)| k == "graph.backward"), "no backward span");
    let series = parsed.get("series").expect("series section");
    for name in
        ["train.mention.loss", "train.mention.epoch_ms", "train.mention.examples_per_sec"]
    {
        let Some(Json::Arr(points)) = series.get(name) else {
            panic!("missing training series {name}");
        };
        assert_eq!(points.len(), 2, "{name}: one point per epoch expected");
    }
    let values = parsed.get("values").expect("values section");
    assert!(
        values.get("graph.nodes_per_backward").is_some(),
        "graph size histogram missing"
    );
}

#[test]
fn disabled_tracing_records_nothing_during_training() {
    let _guard = trace_lock();
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();
    let cfg = ModelConfig::tiny();
    let ds = generate(&WikiSqlConfig::tiny(21));
    let vocab = nlidb_core::vocab::build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
    let mut m = MentionClassifier::new(&cfg, vocab, &space);
    m.train(&training_data(), 1);
    let snap = nlidb_trace::snapshot("off");
    for section in ["spans", "counters", "values", "series"] {
        let Some(Json::Obj(entries)) = snap.get(section) else {
            panic!("missing section {section}");
        };
        assert!(entries.is_empty(), "{section} recorded entries while disabled");
    }
}

#[test]
fn out_of_core_training_records_per_epoch_series() {
    let _guard = trace_lock();
    let model = ModelConfig::tiny();
    let epochs = [
        ("train.mention.loss", model.mention_epochs),
        ("train.value.loss", model.mention_epochs.max(4)),
        ("train.seq2seq.loss", model.epochs),
    ];
    let mut cfg = ShardedCorpusConfig::tiny(64);
    cfg.base.train_tables = 3;
    cfg.base.questions_per_table = 4;
    let plan = CorpusPlan::compile(cfg);
    let mut src = InMemorySource::from_plan(&plan, Split::Train);

    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    Nlidb::train_streamed(&mut src, NlidbOptions { model, ..NlidbOptions::default() }).unwrap();
    let snap = nlidb_trace::snapshot("streamed");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    let series = snap.get("series").expect("series section");
    for (name, n) in epochs {
        let Some(Json::Arr(points)) = series.get(name) else {
            panic!("streamed training recorded no {name} series");
        };
        assert_eq!(points.len(), n, "{name}: one point per epoch expected");
    }
}

/// The entry names of one section of a parsed trace snapshot.
fn section_keys<'a>(snap: &'a Json, section: &str) -> Vec<&'a str> {
    match snap.get(section) {
        Some(Json::Obj(entries)) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("missing section {section}"),
    }
}

/// One full train + evaluate pass: the concatenated parameter stores of
/// every model, the dev predictions, and `Acc_ex`.
fn train_and_evaluate(ds: &Dataset) -> (String, Vec<Option<Query>>, f32) {
    let opts = NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() };
    let nlidb = Nlidb::train(ds, opts);
    let mut stores = nlidb.detector.classifier.store.to_json_string();
    stores.push_str(&nlidb.detector.value_detector.store.to_json_string());
    match nlidb.translator() {
        Translator::Gru(m) => stores.push_str(&m.store.to_json_string()),
        Translator::Transformer(m) => stores.push_str(&m.store.to_json_string()),
    }
    let preds: Vec<(Option<Query>, &Example)> =
        ds.dev.iter().map(|e| (nlidb.predict(&e.question, &e.table), e)).collect();
    let acc_ex = evaluate(&preds).acc_ex;
    (stores, preds.into_iter().map(|(p, _)| p).collect(), acc_ex)
}

#[test]
fn whole_system_is_bitwise_equal_with_tracing_on_and_off() {
    let _guard = trace_lock();
    let mut gen_cfg = WikiSqlConfig::tiny(75);
    gen_cfg.train_tables = 8;
    gen_cfg.questions_per_table = 8;
    let ds = generate(&gen_cfg);

    nlidb_trace::set_enabled(false);
    let (stores_off, preds_off, ex_off) = train_and_evaluate(&ds);
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    let (stores_on, preds_on, ex_on) = train_and_evaluate(&ds);
    let snap = nlidb_trace::snapshot("whole_system");
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();

    assert_eq!(stores_off, stores_on, "parameter stores diverged between NLIDB_TRACE off and on");
    assert_eq!(preds_off, preds_on, "dev predictions diverged between NLIDB_TRACE off and on");
    assert_eq!(ex_off.to_bits(), ex_on.to_bits(), "Acc_ex diverged between NLIDB_TRACE off and on");

    let parsed = Json::parse(&snap.pretty()).expect("trace snapshot must be valid JSON");
    let spans = section_keys(&parsed, "spans");
    assert!(spans.iter().any(|k| k.starts_with("graph.bwd.")), "no autograd backward-op spans");
    for name in [
        "pipeline.train.mention",
        "pipeline.train.translator",
        "pipeline.mention_detect",
        "pipeline.annotate",
        "pipeline.decode",
        "storage.execute",
    ] {
        assert!(spans.contains(&name), "missing span {name}");
    }
    let counters = section_keys(&parsed, "counters");
    for name in ["storage.queries", "storage.rows_scanned", "storage.conditions_evaluated"] {
        assert!(counters.contains(&name), "missing counter {name}");
    }
    let series = section_keys(&parsed, "series");
    for name in ["train.seq2seq.loss", "train.seq2seq.epoch_ms"] {
        assert!(series.contains(&name), "missing series {name}");
    }
}
