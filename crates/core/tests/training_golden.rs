//! Golden training bytes: every training loop in `nlidb-core`, run on a
//! tiny seeded corpus, must reproduce the parameter bytes pinned below.
//!
//! `parallel_determinism` and `stream_training` compare two runs of the
//! *same* code; this suite compares against constants, so it catches a
//! refactor of the training loops that moves a single parameter bit (a
//! reordered shuffle draw, an extra optimizer step, a changed reduction
//! order). Each constant is an FNV-1a hash over the f32 bit patterns of
//! one trained [`ParamStore`], in [`ParamStore::iter`] order. The hashes
//! are thread-count independent by the threading contract (DESIGN.md
//! "Threading & determinism"), so the suite holds under `NLIDB_THREADS=1`
//! and at the default pool width alike.
//!
//! The constants must never be edited to make a change pass: a mismatch
//! means the change retrains every committed model.

use nlidb_core::baselines::{new_typesql, Seq2Sql, SqlNet};
use nlidb_core::pipeline::Translator;
use nlidb_core::vocab::build_input_vocab;
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::stream::InMemorySource;
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_data::{CorpusPlan, Dataset, ShardedCorpusConfig, Split};
use nlidb_tensor::ParamStore;
use nlidb_text::EmbeddingSpace;

/// FNV-1a (64-bit) over the little-endian bit pattern of every parameter
/// value, parameters in store order.
fn store_hash(store: &ParamStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (_, _, t) in store.iter() {
        for x in t.data() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// `[classifier, value detector, translator]` store hashes.
fn nlidb_hashes(m: &Nlidb) -> [u64; 3] {
    let translator = match m.translator() {
        Translator::Gru(s) => &s.store,
        Translator::Transformer(t) => &t.store,
    };
    [
        store_hash(&m.detector.classifier.store),
        store_hash(&m.detector.value_detector.store),
        store_hash(translator),
    ]
}

fn assert_golden(label: &str, got: &[u64], want: &[u64]) {
    let show = |v: &[u64]| {
        v.iter()
            .map(|h| format!("0x{h:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert_eq!(
        got,
        want,
        "{label}: trained bytes moved; got [{}]",
        show(got)
    );
}

fn corpus() -> Dataset {
    generate(&WikiSqlConfig::tiny(17))
}

fn opts(batch_size: usize, use_transformer: bool) -> NlidbOptions {
    let mut model = ModelConfig::tiny();
    model.batch_size = batch_size;
    NlidbOptions {
        model,
        use_transformer,
        ..NlidbOptions::default()
    }
}

fn streamed(opts: NlidbOptions) -> Nlidb {
    let mut cfg = ShardedCorpusConfig::tiny(23);
    cfg.base.train_tables = 4;
    cfg.base.dev_tables = 1;
    cfg.base.test_tables = 1;
    cfg.base.questions_per_table = 5;
    let plan = CorpusPlan::compile(cfg);
    let mut src = InMemorySource::from_plan(&plan, Split::Train);
    Nlidb::train_streamed(&mut src, opts).expect("in-memory source cannot fail")
}

/// The trained baseline's store hash followed by its final-epoch loss bits.
fn baseline_golden(store: &ParamStore, loss: f32) -> [u64; 2] {
    [store_hash(store), u64::from(loss.to_bits())]
}

fn baseline_inputs() -> (ModelConfig, Dataset, nlidb_text::Vocab, EmbeddingSpace) {
    let cfg = ModelConfig::tiny();
    let ds = corpus();
    let vocab = build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim.max(8), 77);
    (cfg, ds, vocab, space)
}

#[test]
fn gru_copy_per_example() {
    let m = Nlidb::train(&corpus(), opts(1, false));
    assert_golden(
        "gru/bs1",
        &nlidb_hashes(&m),
        &[0xa7dd5e6f5f4ad587, 0xc4d75367143a2e24, 0x1bf7c0aadbf60ef2],
    );
}

#[test]
fn gru_copy_minibatched() {
    let m = Nlidb::train(&corpus(), opts(4, false));
    assert_golden(
        "gru/bs4",
        &nlidb_hashes(&m),
        &[0x9ff04e5747676b76, 0xc4d75367143a2e24, 0x02d078d57e7af550],
    );
}

#[test]
fn transformer() {
    let m = Nlidb::train(&corpus(), opts(1, true));
    assert_golden(
        "transformer",
        &nlidb_hashes(&m),
        &[0xa7dd5e6f5f4ad587, 0xc4d75367143a2e24, 0x9ad2900618f90532],
    );
}

#[test]
fn streamed_gru() {
    let m = streamed(opts(1, false));
    assert_golden(
        "streamed/gru",
        &nlidb_hashes(&m),
        &[0xa01885431e101cd4, 0xfc50aa01de6afa92, 0x91d777efe0676a37],
    );
}

#[test]
fn streamed_transformer_minibatched() {
    let m = streamed(opts(4, true));
    assert_golden(
        "streamed/transformer/bs4",
        &nlidb_hashes(&m),
        &[0x4148c0691ea27a8d, 0xfc50aa01de6afa92, 0xe77d8f6cf37a8ec8],
    );
}

#[test]
fn sqlnet() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = SqlNet::new(&cfg, vocab, &space, None);
    let loss = m.train(&ds.train, 2);
    assert_golden(
        "sqlnet",
        &baseline_golden(&m.store, loss),
        &[0xa4c755a6a3376b06, 0x3fadab26],
    );
}

#[test]
fn typesql() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = new_typesql(&cfg, vocab, &space);
    let loss = m.train(&ds.train, 2);
    assert_golden(
        "typesql",
        &baseline_golden(&m.store, loss),
        &[0xf03e15a6307375a5, 0x3f97e87f],
    );
}

#[test]
fn seq2sql() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = Seq2Sql::new(&cfg, vocab, &space);
    let loss = m.train(&ds.train, 2);
    assert_golden(
        "seq2sql",
        &baseline_golden(&m.store, loss),
        &[0xb03bc94a64c5f3f0, 0x4049aa94],
    );
}
