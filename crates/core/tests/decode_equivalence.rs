//! Regression tests pinning greedy decoding, `decode_beam(width = 1)`, on
//! exact score ties.
//!
//! The beam picks each step's token through a stable descending sort, so
//! it must break exact ties toward the **lowest token index** — an
//! index-ordered rule, never dependent on float comparison order or sort
//! internals. The cases below construct genuinely tied distributions by
//! zeroing the output projection through the public parameter store.

use nlidb_core::seq2seq::{Seq2Seq, Seq2SeqItem, MAX_DECODE_LEN};
use nlidb_core::vocab::OutVocab;
use nlidb_core::ModelConfig;
use nlidb_sqlir::{AnnTok, AnnotatedSql, CmpOp};
use nlidb_tensor::Rng;
use nlidb_text::{EmbeddingSpace, Vocab};

/// Tokenized toy inputs plus the vocabularies they index into.
fn toy_setup(seed: u64) -> (ModelConfig, Vocab, OutVocab, Vec<Seq2SeqItem>) {
    let cfg = ModelConfig::tiny();
    let mut vocab = Vocab::new();
    for i in 1..=6 {
        vocab.add(&format!("c{i}"));
        vocab.add(&format!("v{i}"));
    }
    for w in ["which", "thing", "?"] {
        vocab.add(w);
    }
    let ov = OutVocab::new(&cfg);
    let mut rng = Rng::seed_from_u64(seed);
    let data: Vec<Seq2SeqItem> = (0..12)
        .map(|_| {
            let c = rng.gen_range(0..3usize);
            let v = rng.gen_range(0..3usize);
            let words = [
                "which".to_string(),
                format!("c{}", c + 1),
                "thing".to_string(),
                format!("v{}", v + 1),
                "?".to_string(),
            ];
            let src: Vec<usize> = words.iter().map(|w| vocab.id(w)).collect();
            let copy: Vec<Option<usize>> =
                words.iter().map(|w| ov.copy_id_for_input_token(w)).collect();
            let sa = AnnotatedSql(vec![
                AnnTok::Select,
                AnnTok::C(c),
                AnnTok::Where,
                AnnTok::C(c),
                AnnTok::Op(CmpOp::Eq),
                AnnTok::V(v),
            ]);
            Seq2SeqItem { src, copy, tgt: ov.encode(&sa) }
        })
        .collect();
    (cfg, vocab, ov, data)
}

/// An untrained model with the copy path disabled, so the next-token
/// distribution is exactly `softmax(U·feats)` — zeroing `s2s.u.*` then
/// yields *exact* ties (the copy path would add attention mass on top and
/// break them).
fn untrained_no_copy(seed: u64) -> (Seq2Seq, usize, Vec<Seq2SeqItem>) {
    let (cfg, vocab, ov, data) = toy_setup(seed);
    let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
    let vocab_len = ov.len();
    (Seq2Seq::new(&cfg, &vocab, ov, &space, false), vocab_len, data)
}

/// Zeroes every parameter whose name starts with `prefix`.
fn zero_params(model: &mut Seq2Seq, prefix: &str) {
    let ids: Vec<_> = model
        .store
        .iter()
        .filter(|(_, name, _)| name.starts_with(prefix))
        .map(|(id, _, _)| id)
        .collect();
    for id in ids {
        for v in model.store.get_mut(id).data_mut() {
            *v = 0.0;
        }
    }
}

#[test]
fn beam_width_one_equals_greedy_on_full_score_ties() {
    // Zero the output projection entirely: every step's distribution is
    // exactly uniform, so *every* token is tied for the maximum. The
    // index-ordered tie-break must pick token 0 (Pad) at each step for
    // the full decode budget (Pad is not EOS, so decoding never
    // terminates early).
    let (mut model, _, data) = untrained_no_copy(10);
    zero_params(&mut model, "s2s.u.");
    for item in data.iter().take(4) {
        assert_eq!(
            model.decode_beam(&item.src, &item.copy, 1),
            vec![0usize; MAX_DECODE_LEN],
            "uniform tie must break to the lowest index at every step"
        );
    }
}

#[test]
fn beam_width_one_equals_greedy_on_partial_score_ties() {
    // Zero the projection weights but plant an exact two-way tie in the
    // bias: tokens `lo` and `hi` share the unique maximum score. Greedy
    // decoding must emit `lo` (the smaller index) at every step.
    let (mut model, vocab_len, data) = untrained_no_copy(11);
    zero_params(&mut model, "s2s.u.");
    let (lo, hi) = (3usize, vocab_len - 1);
    let bias = model.store.id_of("s2s.u.b").expect("output bias registered");
    {
        let b = model.store.get_mut(bias);
        b.set(0, lo, 1.0);
        b.set(0, hi, 1.0);
    }
    for item in data.iter().take(4) {
        assert_eq!(
            model.decode_beam(&item.src, &item.copy, 1),
            vec![lo; MAX_DECODE_LEN],
            "two-way tie must break to the lower index, not the higher"
        );
    }
}
