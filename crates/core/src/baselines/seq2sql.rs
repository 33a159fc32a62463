//! Seq2SQL-style augmented-pointer baseline (Zhong et al. 2017), Table II
//! row 1 (without the RL fine-tuning stage, which the paper's Table II
//! numbers show gains little over the pointer model itself).
//!
//! The model generates every output token by *pointing* into an augmented
//! input sequence: `[SQL keywords] ++ [<col> column words]* ++ [question
//! words]`. No annotation is involved — which is exactly why it trails the
//! annotated seq2seq on unseen schemas: column and value tokens must be
//! selected from raw text without any notion of mention slots.

use nlidb_data::{Example, SlotRole};
use nlidb_neural::{BahdanauAttention, Cell, Embedding, GruCell, Linear, Rnn};
use nlidb_tensor::{Graph, NodeId, ParamStore, Tensor};
use nlidb_text::{EmbeddingSpace, Vocab};
use nlidb_tensor::Rng;

use crate::config::ModelConfig;
use crate::train::{train_series, Fit, FitSpec};
use nlidb_sqlir::{Agg, CmpOp, Literal, Query};
use nlidb_storage::Table;

/// Fixed keyword prefix of the augmented input.
const KEYWORDS: &[&str] = &[
    "select", "where", "and", "count", "min", "max", "sum", "avg", "=", ">", "<", ">=", "<=",
    "!=", "</s>", "<col>",
];

/// The augmented input for one (question, table) pair.
pub struct AugInput {
    /// Tokens of the augmented sequence.
    pub tokens: Vec<String>,
    /// Token range of each column's name (excludes the `<col>` marker).
    pub col_ranges: Vec<(usize, usize)>,
    /// Offset where question tokens start.
    pub q_offset: usize,
}

/// Builds the augmented input.
pub fn augment(question: &[String], table: &Table) -> AugInput {
    let mut tokens: Vec<String> = KEYWORDS.iter().map(|s| s.to_string()).collect();
    let mut col_ranges = Vec::with_capacity(table.num_cols());
    for name in table.column_names() {
        tokens.push("<col>".to_string());
        let start = tokens.len();
        tokens.extend(nlidb_text::tokenize(&name));
        col_ranges.push((start, tokens.len()));
    }
    let q_offset = tokens.len();
    tokens.extend(question.iter().cloned());
    AugInput { tokens, col_ranges, q_offset }
}

fn kw_pos(kw: &str) -> usize {
    // lint:allow(panic-path): research baseline, never on the serving path (the call graph reaches it only through same-name collisions); every caller passes a literal from KEYWORDS.
    KEYWORDS.iter().position(|k| *k == kw).expect("known keyword")
}

/// Builds the gold pointer-target sequence for an example, if every value
/// span is annotated.
pub fn gold_positions(e: &Example, aug: &AugInput) -> Option<Vec<usize>> {
    let mut pos = vec![kw_pos("select")];
    match e.query.agg {
        Agg::None => {}
        agg => pos.push(kw_pos(&agg.keyword().to_lowercase())),
    }
    let (a, b) = aug.col_ranges[e.query.select_col];
    pos.extend(a..b);
    if !e.query.conds.is_empty() {
        pos.push(kw_pos("where"));
        for (ci, cond) in e.query.conds.iter().enumerate() {
            if ci > 0 {
                pos.push(kw_pos("and"));
            }
            let (ca, cb) = aug.col_ranges[cond.col];
            pos.extend(ca..cb);
            pos.push(kw_pos(cond.op.symbol()));
            let (va, vb) = e
                .slots
                .iter()
                .find(|s| s.role == SlotRole::Cond(ci))
                .and_then(|s| s.val_span)?;
            pos.extend((va + aug.q_offset)..(vb + aug.q_offset));
        }
    }
    pos.push(kw_pos("</s>"));
    Some(pos)
}

/// Parses a decoded token sequence back into a query against the table's
/// schema (longest-prefix column matching).
pub fn parse_pointer_tokens(tokens: &[String], table: &Table) -> Option<Query> {
    let names: Vec<Vec<String>> =
        table.column_names().iter().map(|n| nlidb_text::tokenize(n)).collect();
    let match_col = |toks: &[String]| -> Option<(usize, usize)> {
        // Longest column whose tokens are a prefix of `toks`.
        let mut best: Option<(usize, usize)> = None;
        for (ci, name) in names.iter().enumerate() {
            if name.len() <= toks.len() && toks[..name.len()] == name[..]
                && best.map(|(_, l)| name.len() > l).unwrap_or(true) {
                    best = Some((ci, name.len()));
                }
        }
        best
    };
    let mut it = tokens.iter().peekable();
    if it.next().map(String::as_str) != Some("select") {
        return None;
    }
    let mut agg = Agg::None;
    if let Some(tok) = it.peek() {
        if let Some(a) = Agg::from_keyword(tok) {
            agg = a;
            it.next();
        }
    }
    let rest: Vec<String> = it.cloned().collect();
    let (select_col, used) = match_col(&rest)?;
    let mut idx = used;
    let mut query = Query { agg, select_col, conds: Vec::new() };
    if idx >= rest.len() || rest[idx] == "</s>" {
        return Some(query);
    }
    if rest[idx] != "where" {
        return None;
    }
    idx += 1;
    loop {
        let (col, used) = match_col(&rest[idx..])?;
        idx += used;
        let op = CmpOp::from_symbol(rest.get(idx)?.as_str())?;
        idx += 1;
        let mut val_tokens = Vec::new();
        while idx < rest.len() && rest[idx] != "and" && rest[idx] != "</s>" {
            val_tokens.push(rest[idx].clone());
            idx += 1;
        }
        if val_tokens.is_empty() {
            return None;
        }
        query.conds.push(nlidb_sqlir::Cond {
            col,
            op,
            value: Literal::parse(&val_tokens.join(" ")),
        });
        if idx >= rest.len() || rest[idx] == "</s>" {
            break;
        }
        idx += 1; // consume "and"
    }
    Some(query)
}

/// The augmented pointer network.
pub struct Seq2Sql {
    /// Parameter store (exposed for checkpointing).
    pub store: ParamStore,
    vocab: Vocab,
    emb: Embedding,
    encoder: Rnn<GruCell>,
    dec_cell: GruCell,
    attn: BahdanauAttention,
    d0_proj: Linear,
    cfg: ModelConfig,
}

const MAX_PTR_STEPS: usize = 36;

impl Seq2Sql {
    /// Builds an untrained model.
    pub fn new(cfg: &ModelConfig, vocab: Vocab, space: &EmbeddingSpace) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5E05);
        let mut store = ParamStore::new();
        let table = crate::embed_init::pretrained_table(&vocab, space, cfg.word_dim, cfg.seed);
        let emb = Embedding::from_pretrained(&mut store, "ss.emb", table);
        let encoder = Rnn::new(&mut store, "ss.enc", cfg.word_dim, cfg.hidden, 1, true, &mut rng);
        let mem = encoder.out_dim();
        let dec_hidden = 2 * cfg.hidden;
        let dec_cell =
            GruCell::new(&mut store, "ss.dec", cfg.word_dim + mem, dec_hidden, &mut rng);
        let attn =
            BahdanauAttention::new(&mut store, "ss.attn", mem, dec_hidden, cfg.attn_dim, &mut rng);
        let d0_proj = Linear::new(&mut store, "ss.d0", mem, dec_hidden, &mut rng);
        Seq2Sql { store, vocab, emb, encoder, dec_cell, attn, d0_proj, cfg: cfg.clone() }
    }

    /// Trains on a split through the crate's one training loop
    /// (`train::fit`), one step per example; returns final-epoch mean loss.
    pub fn train(&mut self, examples: &[Example], epochs: usize) -> f32 {
        crate::train::fit_slice(self, examples, epochs)
    }

    /// Embeds and encodes the augmented input `ids`, shared by training
    /// and inference: returns `(H, d_0)` with `d_0 = tanh(W [h⃗_N ; h⃖_1])`.
    fn encode(&self, g: &mut Graph, ids: &[usize]) -> (NodeId, NodeId) {
        let x = self.emb.forward(g, &self.store, ids);
        let h = self.encoder.forward(g, &self.store, x);
        let summary = self.encoder.final_summary(g, h);
        let d0_lin = self.d0_proj.forward(g, &self.store, summary);
        (h, g.tanh(d0_lin))
    }

    /// One pointer step, shared by training and inference: the GRU reads
    /// `[φ(prev_id) ; β_{i-1}]`, and the new state's raw attention scores
    /// over the augmented input are the pointer logits. Returns `d_i`,
    /// `β_i` and the `[1, n]` logits.
    fn step(
        &self,
        g: &mut Graph,
        h: NodeId,
        d_prev: NodeId,
        beta_prev: NodeId,
        prev_id: usize,
    ) -> (NodeId, NodeId, NodeId) {
        let prev_emb = self.emb.forward(g, &self.store, &[prev_id]);
        let dec_in = g.hcat(prev_emb, beta_prev);
        let d = self.dec_cell.step(g, &self.store, dec_in, d_prev);
        let att = self.attn.forward(g, &self.store, h, d);
        let logits = g.transpose(att.scores);
        (d, att.context, logits)
    }

    /// Greedy pointer decoding followed by parse-back.
    pub fn predict(&self, question: &[String], table: &Table) -> Option<Query> {
        if question.is_empty() || table.num_cols() == 0 {
            return None;
        }
        let aug = augment(question, table);
        let ids: Vec<usize> = aug.tokens.iter().map(|t| self.vocab.id(t)).collect();
        let mut g = Graph::frozen();
        let (h, mut d) = self.encode(&mut g, &ids);
        let mut beta = g.leaf(Tensor::zeros(1, self.encoder.out_dim()));
        let mut prev_pos = kw_pos("select");
        let mut out_tokens: Vec<String> = Vec::new();
        for _ in 0..MAX_PTR_STEPS {
            let prev_id = self.vocab.id(&aug.tokens[prev_pos]);
            let (d_next, context, logits) = self.step(&mut g, h, d, beta, prev_id);
            let next = g.value(logits).argmax_row(0);
            d = d_next;
            beta = context;
            let tok = aug.tokens[next].clone();
            prev_pos = next;
            if tok == "</s>" {
                break;
            }
            out_tokens.push(tok);
        }
        let mut full = vec!["select".to_string()];
        // The first generated token is after the implicit BOS "select"; the
        // model was trained to also emit "select" first — drop a duplicate.
        if out_tokens.first().map(String::as_str) == Some("select") {
            full = Vec::new();
        }
        full.extend(out_tokens);
        full.push("</s>".to_string());
        parse_pointer_tokens(&full, table)
    }
}

impl Fit for Seq2Sql {
    type Item = Example;

    fn fit_spec(&self) -> FitSpec {
        FitSpec::per_example(&self.cfg, 0x5E06, train_series!("seq2sql"))
    }

    fn fit_store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Teacher-forced pointer loss for one example. Returns `None` when
    /// the gold target cannot be built (unlocated value span).
    fn item_loss(&self, g: &mut Graph, e: &Example) -> Option<NodeId> {
        let aug = augment(&e.question, &e.table);
        let gold = gold_positions(e, &aug)?;
        let ids: Vec<usize> = aug.tokens.iter().map(|t| self.vocab.id(t)).collect();
        let (h, mut d) = self.encode(g, &ids);
        let mut beta = g.leaf(Tensor::zeros(1, self.encoder.out_dim()));
        let mut prev_pos = kw_pos("select"); // BOS stand-in
        let mut losses = Vec::with_capacity(gold.len());
        for &tgt in &gold {
            let prev_id = self.vocab.id(&aug.tokens[prev_pos]);
            let (d_next, context, logits) = self.step(g, h, d, beta, prev_id);
            d = d_next;
            beta = context;
            let lp = g.log_softmax_rows(logits);
            losses.push(g.pick_nll(lp, vec![tgt]));
            prev_pos = tgt;
        }
        let mut total = losses[0];
        for &l in &losses[1..] {
            total = g.add(total, l);
        }
        Some(g.scale(total, 1.0 / losses.len() as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::build_input_vocab;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    fn setup() -> (Seq2Sql, nlidb_data::Dataset) {
        let cfg = ModelConfig::tiny();
        let ds = generate(&WikiSqlConfig::tiny(95));
        let vocab = build_input_vocab(&ds, &cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
        (Seq2Sql::new(&cfg, vocab, &space), ds)
    }

    #[test]
    fn augment_layout() {
        let ds = generate(&WikiSqlConfig::tiny(96));
        let e = &ds.train[0];
        let aug = augment(&e.question, &e.table);
        assert_eq!(&aug.tokens[..2], &["select", "where"]);
        assert_eq!(aug.col_ranges.len(), e.table.num_cols());
        assert!(aug.q_offset > KEYWORDS.len());
        // Column ranges hold the column's words.
        for (ci, (a, b)) in aug.col_ranges.iter().enumerate() {
            let name = nlidb_text::tokenize(&e.table.column_names()[ci]);
            assert_eq!(&aug.tokens[*a..*b], name.as_slice());
        }
    }

    #[test]
    fn gold_positions_roundtrip_through_parser() {
        let ds = generate(&WikiSqlConfig::tiny(97));
        let mut checked = 0;
        for e in ds.train.iter().take(40) {
            let aug = augment(&e.question, &e.table);
            let Some(gold) = gold_positions(e, &aug) else { continue };
            let tokens: Vec<String> = gold.iter().map(|&p| aug.tokens[p].clone()).collect();
            let parsed = parse_pointer_tokens(&tokens, &e.table)
                .unwrap_or_else(|| panic!("unparseable gold for {}", e.sql_text()));
            assert!(
                nlidb_sqlir::query_match(&parsed, &e.query),
                "roundtrip mismatch: {} vs {}",
                parsed.to_sql(&e.table.column_names()),
                e.sql_text()
            );
            checked += 1;
        }
        assert!(checked > 20, "too few roundtrips checked");
    }

    #[test]
    fn parser_rejects_garbage() {
        let ds = generate(&WikiSqlConfig::tiny(98));
        let t = &ds.train[0].table;
        let toks = |s: &str| -> Vec<String> { s.split(' ').map(str::to_string).collect() };
        assert!(parse_pointer_tokens(&toks("where select"), t).is_none());
        assert!(parse_pointer_tokens(&toks("select nonexistent col"), t).is_none());
        assert!(parse_pointer_tokens(&[], t).is_none());
    }

    #[test]
    fn training_reduces_loss_and_predicts() {
        let (mut model, ds) = setup();
        let first = {
            let mut g = Graph::new();
            let l = model.item_loss(&mut g, &ds.train[0]).expect("target");
            g.value(l).scalar()
        };
        let last = model.train(&ds.train[..24], 3);
        assert!(last < first, "no learning: {first} -> {last}");
        let e = &ds.dev[0];
        let _ = model.predict(&e.question, &e.table); // parse may fail; no panic
    }
}
