//! Golden inference bytes: what every trained system in `nlidb-core`
//! answers on a tiny seeded corpus must reproduce the hashes pinned below.
//!
//! `training_golden` pins the trained parameters; this suite pins what
//! those parameters *answer*, so a refactor of the decode step, the beam,
//! the copy path, mention detection or recovery that moves a single
//! prediction fails here even when every trained byte is unchanged. It
//! reuses `training_golden`'s fixture (`WikiSqlConfig::tiny(17)`,
//! `ModelConfig::tiny()`) and covers every dev and test example:
//!
//! - the mention classifier's probability and the §IV-C
//!   [`influence`] word/char norms for each (question, column);
//! - the ranked GRU beam of each annotated question;
//! - `predict` and `predict_guided`, rendered as SQL, for the GRU and
//!   the transformer systems;
//! - `predict` of the Seq2SQL, SQLNet and TypeSQL baselines, each trained
//!   for 2 epochs.
//!
//! Each constant is an FNV-1a hash over the bytes of one of those
//! streams. The hashes are thread-count independent by the threading
//! contract (DESIGN.md "Threading & determinism"), so the suite holds
//! under `NLIDB_THREADS=1` and at the default pool width alike.
//!
//! The constants must never be edited to make a change pass: a mismatch
//! means the change moves what a trained model answers.

use nlidb_core::baselines::{new_typesql, Seq2Sql, SqlNet};
use nlidb_core::mention::adversarial::influence;
use nlidb_core::pipeline::Translator;
use nlidb_core::vocab::{build_input_vocab, encode_source};
use nlidb_core::{ModelConfig, Nlidb, NlidbOptions};
use nlidb_data::wikisql::{generate, WikiSqlConfig};
use nlidb_data::{Dataset, Example};
use nlidb_sqlir::Query;
use nlidb_text::EmbeddingSpace;

/// FNV-1a (64-bit) over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.bytes(&(x as u64).to_le_bytes());
    }

    fn f32(&mut self, x: f32) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// A length-prefixed string, so adjacent strings cannot alias.
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// A prediction rendered as SQL against its table, or a marker for
    /// no answer.
    fn answer(&mut self, q: &Option<Query>, e: &Example) {
        match q {
            Some(q) => self.str(&q.to_sql(&e.table.column_names())),
            None => self.str("<none>"),
        }
    }
}

fn assert_golden(label: &str, got: &[u64], want: &[u64]) {
    let show = |v: &[u64]| {
        v.iter()
            .map(|h| format!("0x{h:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert_eq!(got, want, "{label}: answers moved; got [{}]", show(got));
}

fn corpus() -> Dataset {
    generate(&WikiSqlConfig::tiny(17))
}

/// Every dev and test example, in split order.
fn held_out(ds: &Dataset) -> impl Iterator<Item = &Example> {
    ds.dev.iter().chain(&ds.test)
}

fn system(ds: &Dataset, use_transformer: bool) -> Nlidb {
    let opts = NlidbOptions { model: ModelConfig::tiny(), use_transformer, ..NlidbOptions::default() };
    Nlidb::train(ds, opts)
}

/// `[predict, predict_guided]` hashes of a trained system.
fn answer_hashes(m: &Nlidb, ds: &Dataset) -> [u64; 2] {
    let (mut plain, mut guided) = (Fnv::new(), Fnv::new());
    for e in held_out(ds) {
        plain.answer(&m.predict(&e.question, &e.table), e);
        guided.answer(&m.predict_guided(&e.question, &e.table), e);
    }
    [plain.0, guided.0]
}

#[test]
fn gru_system() {
    let ds = corpus();
    let m = system(&ds, false);
    let Translator::Gru(s2s) = m.translator() else { panic!("GRU translator expected") };
    let clf = &m.detector.classifier;
    let (mut probs, mut infl, mut beams) = (Fnv::new(), Fnv::new(), Fnv::new());
    for e in held_out(&ds) {
        for name in e.table.column_names() {
            let column = nlidb_text::tokenize(&name);
            if column.is_empty() {
                continue;
            }
            probs.f32(clf.predict(&e.question, &column));
            let i = influence(clf, &e.question, &column);
            for &x in i.word.iter().chain(&i.char) {
                infl.f32(x);
            }
        }
        let ann = m.annotate_question(&e.question, &e.table);
        let (src, copy) = encode_source(m.in_vocab(), m.out_vocab(), &ann.tokens);
        if src.is_empty() {
            beams.usize(usize::MAX);
            continue;
        }
        let ranked = s2s.decode_beam_ranked(&src, &copy, m.options().model.beam_width);
        beams.usize(ranked.len());
        for cand in &ranked {
            beams.usize(cand.len());
            cand.iter().for_each(|&t| beams.usize(t));
        }
    }
    let [plain, guided] = answer_hashes(&m, &ds);
    assert_golden(
        "gru",
        &[probs.0, infl.0, beams.0, plain, guided],
        &[
            0xd37d51e72ba72523,
            0xd96e5ef1f684aa02,
            0x364ab05267f8c31b,
            0xe066fb54d72c8141,
            0xe066fb54d72c8141,
        ],
    );
}

#[test]
fn transformer_system() {
    let ds = corpus();
    let m = system(&ds, true);
    assert_golden(
        "transformer",
        &answer_hashes(&m, &ds),
        &[0xc2a45f987eb68298, 0xc2a45f987eb68298],
    );
}

/// The baselines' shared fixture, as in `training_golden`.
fn baseline_inputs() -> (ModelConfig, Dataset, nlidb_text::Vocab, EmbeddingSpace) {
    let cfg = ModelConfig::tiny();
    let ds = corpus();
    let vocab = build_input_vocab(&ds, &cfg);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim.max(8), 77);
    (cfg, ds, vocab, space)
}

fn baseline_hash(ds: &Dataset, predict: impl Fn(&Example) -> Option<Query>) -> [u64; 1] {
    let mut h = Fnv::new();
    for e in held_out(ds) {
        h.answer(&predict(e), e);
    }
    [h.0]
}

#[test]
fn seq2sql() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = Seq2Sql::new(&cfg, vocab, &space);
    m.train(&ds.train, 2);
    let got = baseline_hash(&ds, |e| m.predict(&e.question, &e.table));
    assert_golden("seq2sql", &got, &[0xa8313d181e32cf65]);
}

#[test]
fn sqlnet() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = SqlNet::new(&cfg, vocab, &space, None);
    m.train(&ds.train, 2);
    let got = baseline_hash(&ds, |e| m.predict(&e.question, &e.table));
    assert_golden("sqlnet", &got, &[0x74b95c21cf1ea82c]);
}

#[test]
fn typesql() {
    let (cfg, ds, vocab, space) = baseline_inputs();
    let mut m = new_typesql(&cfg, vocab, &space);
    m.train(&ds.train, 2);
    let got = baseline_hash(&ds, |e| m.predict(&e.question, &e.table));
    assert_golden("typesql", &got, &[0x7c97db5ca752b9dc]);
}
