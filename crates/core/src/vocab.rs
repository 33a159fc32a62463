//! Vocabulary construction for the models.
//!
//! Two vocabularies matter:
//!
//! - the **input vocabulary** over question/annotation tokens, built from
//!   the training corpus plus the placeholder symbols (`c_i`/`v_i`/`g_i`),
//!   initialized from the synthetic pre-trained embedding space (symbols
//!   get composed type ⊕ index embeddings, as in §VII-A2);
//! - the **output vocabulary** over annotated-SQL tokens ([`OutVocab`]),
//!   which is small and closed: keywords, operators, aggregates, and the
//!   placeholder symbols.

use nlidb_data::Dataset;
use nlidb_sqlir::{Agg, AnnTok, CmpOp};
use nlidb_text::{special, Vocab};

use crate::config::ModelConfig;

/// The input vocabulary's fixed prefix: the placeholder symbols, added
/// first so their ids are stable across corpora.
pub fn input_vocab_symbols(cfg: &ModelConfig) -> Vocab {
    let mut v = Vocab::new();
    for i in 0..cfg.max_slots {
        v.add(&AnnTok::C(i).to_string());
        v.add(&AnnTok::V(i).to_string());
    }
    for k in 0..cfg.max_headers {
        v.add(&AnnTok::G(k).to_string());
    }
    v
}

/// Adds one batch of examples (question tokens + tokenized column names)
/// to an input vocabulary. Feeding the same examples in the same order —
/// whether as one slice or shard by shard — yields the same vocabulary,
/// which is what keeps the streaming vocabulary pass equivalent to the
/// in-memory one.
pub fn add_examples(v: &mut Vocab, examples: &[nlidb_data::Example]) {
    for e in examples {
        for t in &e.question {
            v.add(t);
        }
        for name in e.table.column_names() {
            for t in nlidb_text::tokenize(&name) {
                v.add(&t);
            }
        }
    }
}

/// Builds the input word vocabulary from a dataset (questions + column
/// names) plus placeholder symbols.
pub fn build_input_vocab(ds: &Dataset, cfg: &ModelConfig) -> Vocab {
    let mut v = input_vocab_symbols(cfg);
    add_examples(&mut v, &ds.train);
    v
}

/// The closed output vocabulary of annotated-SQL tokens.
#[derive(Debug, Clone)]
pub struct OutVocab {
    tokens: Vec<OutTok>,
}

/// One output token: a real annotated-SQL token or a sequence control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutTok {
    /// Decoder start.
    Bos,
    /// Decoder end.
    Eos,
    /// Padding / unknown.
    Pad,
    /// A real annotated-SQL token.
    Tok(AnnTok),
}

impl OutVocab {
    /// Builds the vocabulary for the configured slot/header budget.
    pub fn new(cfg: &ModelConfig) -> Self {
        let mut tokens = vec![OutTok::Pad, OutTok::Bos, OutTok::Eos];
        tokens.push(OutTok::Tok(AnnTok::Select));
        tokens.push(OutTok::Tok(AnnTok::Where));
        tokens.push(OutTok::Tok(AnnTok::And));
        for agg in Agg::ALL {
            if agg != Agg::None {
                tokens.push(OutTok::Tok(AnnTok::Agg(agg)));
            }
        }
        for op in CmpOp::ALL {
            tokens.push(OutTok::Tok(AnnTok::Op(op)));
        }
        for i in 0..cfg.max_slots {
            tokens.push(OutTok::Tok(AnnTok::C(i)));
            tokens.push(OutTok::Tok(AnnTok::V(i)));
        }
        for k in 0..cfg.max_headers {
            tokens.push(OutTok::Tok(AnnTok::G(k)));
        }
        OutVocab { tokens }
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the vocabulary is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Token for an id.
    pub fn token(&self, id: usize) -> OutTok {
        self.tokens[id]
    }

    /// Id of a token.
    ///
    /// Panics when the token is unrepresentable — training-time misuse;
    /// decoding paths only emit ids drawn from this vocabulary, and the
    /// serving encoder goes through [`OutVocab::id_opt`].
    pub fn id(&self, tok: OutTok) -> usize {
        self.id_opt(tok)
            // lint:allow(panic-path): construction-time invariant; serving code uses `id_opt` and never reaches this.
            .unwrap_or_else(|| panic!("token {tok:?} not in output vocabulary"))
    }

    /// Id of a token, if representable.
    pub fn id_opt(&self, tok: OutTok) -> Option<usize> {
        self.tokens.iter().position(|t| *t == tok)
    }

    /// Encodes an annotated SQL if every token is representable (slots or
    /// headers beyond the configured budget yield `None`).
    pub fn try_encode(&self, sa: &nlidb_sqlir::AnnotatedSql) -> Option<Vec<usize>> {
        let mut ids = Vec::with_capacity(sa.0.len() + 1);
        for t in &sa.0 {
            ids.push(self.id_opt(OutTok::Tok(*t))?);
        }
        ids.push(self.eos());
        Some(ids)
    }

    /// Id of the BOS token.
    pub fn bos(&self) -> usize {
        self.id(OutTok::Bos)
    }

    /// Id of the EOS token.
    pub fn eos(&self) -> usize {
        self.id(OutTok::Eos)
    }

    /// Encodes an annotated SQL into target ids (no BOS, with EOS).
    pub fn encode(&self, sa: &nlidb_sqlir::AnnotatedSql) -> Vec<usize> {
        let mut ids: Vec<usize> =
            sa.0.iter().map(|t| self.id(OutTok::Tok(*t))).collect();
        ids.push(self.eos());
        ids
    }

    /// Decodes ids into an annotated SQL, stopping at EOS.
    pub fn decode(&self, ids: &[usize]) -> nlidb_sqlir::AnnotatedSql {
        let mut toks = Vec::new();
        for &id in ids {
            match self.token(id) {
                OutTok::Eos => break,
                OutTok::Tok(t) => toks.push(t),
                OutTok::Bos | OutTok::Pad => {}
            }
        }
        nlidb_sqlir::AnnotatedSql(toks)
    }

    /// Maps an *input* token string (e.g. `"c2"`) to the output-vocabulary
    /// id of the same symbol, if it exists — this is the alignment the copy
    /// mechanism uses to add `exp(e_ij)` mass to source tokens.
    pub fn copy_id_for_input_token(&self, token: &str) -> Option<usize> {
        let ann = AnnTok::parse(token)?;
        self.tokens.iter().position(|t| *t == OutTok::Tok(ann))
    }
}

/// Encodes an annotated question `q^a` for the translator: its
/// input-vocabulary ids, and per position the output-vocabulary id the
/// copy mechanism may copy it as. Training and inference both encode
/// through here.
pub fn encode_source(
    in_vocab: &Vocab,
    out_vocab: &OutVocab,
    tokens: &[String],
) -> (Vec<usize>, Vec<Option<usize>>) {
    let src = tokens.iter().map(|t| in_vocab.id(t)).collect();
    let copy = tokens.iter().map(|t| out_vocab.copy_id_for_input_token(t)).collect();
    (src, copy)
}

/// Sanity helper: fraction of tokens that map to `<unk>`.
pub fn oov_rate(vocab: &Vocab, tokens: &[String]) -> f32 {
    if tokens.is_empty() {
        return 0.0;
    }
    let unk = tokens.iter().filter(|t| vocab.id(t) == special::UNK).count();
    unk as f32 / tokens.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_sqlir::AnnotatedSql;

    #[test]
    fn input_vocab_contains_symbols_and_corpus_words() {
        let ds = generate(&WikiSqlConfig::tiny(3));
        let cfg = ModelConfig::tiny();
        let v = build_input_vocab(&ds, &cfg);
        assert!(v.contains("c1"));
        assert!(v.contains("v6"));
        assert!(v.contains("g8"));
        assert!(!v.contains("g9"), "beyond max_headers");
        // Some corpus word must be present.
        assert!(v.contains("?"));
        assert!(v.len() > 50);
    }

    #[test]
    fn out_vocab_roundtrips_annotated_sql() {
        let cfg = ModelConfig::tiny();
        let ov = OutVocab::new(&cfg);
        let sa = AnnotatedSql(vec![
            AnnTok::Select,
            AnnTok::Agg(Agg::Count),
            AnnTok::C(0),
            AnnTok::Where,
            AnnTok::G(2),
            AnnTok::Op(CmpOp::Ge),
            AnnTok::V(1),
        ]);
        let ids = ov.encode(&sa);
        assert_eq!(*ids.last().unwrap(), ov.eos());
        let back = ov.decode(&ids);
        assert_eq!(back, sa);
    }

    #[test]
    fn out_vocab_is_closed_and_small() {
        let cfg = ModelConfig::tiny();
        let ov = OutVocab::new(&cfg);
        // 3 specials + select/where/and + 5 aggs + 6 ops + 2*slots + headers
        let expected = 3 + 3 + 5 + 6 + 2 * cfg.max_slots + cfg.max_headers;
        assert_eq!(ov.len(), expected);
    }

    #[test]
    fn copy_alignment_maps_symbols() {
        let cfg = ModelConfig::tiny();
        let ov = OutVocab::new(&cfg);
        let id = ov.copy_id_for_input_token("c2").unwrap();
        assert_eq!(ov.token(id), OutTok::Tok(AnnTok::C(1)));
        assert!(ov.copy_id_for_input_token("film").is_none());
        assert!(ov.copy_id_for_input_token("v3").is_some());
    }

    #[test]
    fn try_encode_rejects_out_of_budget_placeholders() {
        let cfg = ModelConfig::tiny(); // max_slots = 6, max_headers = 8
        let ov = OutVocab::new(&cfg);
        let ok = AnnotatedSql(vec![AnnTok::Select, AnnTok::C(5)]);
        assert!(ov.try_encode(&ok).is_some());
        let too_many_slots = AnnotatedSql(vec![AnnTok::Select, AnnTok::C(6)]);
        assert!(ov.try_encode(&too_many_slots).is_none());
        let too_many_headers = AnnotatedSql(vec![AnnTok::Select, AnnTok::G(8)]);
        assert!(ov.try_encode(&too_many_headers).is_none());
    }

    #[test]
    fn id_opt_is_none_for_unrepresentable() {
        let cfg = ModelConfig::tiny();
        let ov = OutVocab::new(&cfg);
        assert!(ov.id_opt(OutTok::Tok(AnnTok::V(99))).is_none());
        assert!(ov.id_opt(OutTok::Bos).is_some());
    }

    #[test]
    fn oov_rate_counts_unknowns() {
        let ds = generate(&WikiSqlConfig::tiny(4));
        let cfg = ModelConfig::tiny();
        let v = build_input_vocab(&ds, &cfg);
        let toks: Vec<String> = vec!["?".into(), "zzzyqx".into()];
        assert!((oov_rate(&v, &toks) - 0.5).abs() < 1e-6);
        assert_eq!(oov_rate(&v, &[]), 0.0);
    }
}
