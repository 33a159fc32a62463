//! SQLNet-style sketch-based baseline (Xu et al. 2017), Table II row 2.
//!
//! Instead of generating a token sequence, SQLNet fills the slots of the
//! fixed WikiSQL sketch
//! `SELECT $AGG $SEL_COL WHERE ($COND_COL $OP $COND_VAL)*` with dedicated
//! sub-models: an aggregate classifier, a column-attention select-column
//! scorer, a condition-count classifier, a condition-column scorer, a
//! per-condition operator classifier, and start/end value pointers over
//! the question. Shared with TypeSQL, which adds type features to the
//! token embeddings (see [`crate::baselines::typesql`]).

use nlidb_data::{Example, SlotRole};
use nlidb_neural::{Activation, BahdanauAttention, Embedding, GruCell, Linear, Mlp, Rnn};
use nlidb_tensor::{Graph, NodeId, ParamStore, Tensor};
use nlidb_text::{EmbeddingSpace, Vocab};
use nlidb_tensor::Rng;

use crate::config::ModelConfig;
use crate::train::{train_series, Fit, FitSpec};
use nlidb_sqlir::{Agg, CmpOp, Literal, Query};
use nlidb_storage::Table;

/// Per-token type classes used by the TypeSQL variant (0 = none).
pub const N_TYPES: usize = 6;

/// A function computing per-token type ids for a question against a table
/// (TypeSQL's knowledge-based typing; `None` disables type features).
pub type TypeFn = fn(&[String], &Table) -> Vec<usize>;

/// Maximum conditions in the sketch (our corpora generate up to 3).
const MAX_CONDS: usize = 3;

/// The sketch-filling model.
pub struct SqlNet {
    /// Parameter store (exposed for checkpointing).
    pub store: ParamStore,
    vocab: Vocab,
    emb: Embedding,
    type_emb: Option<Embedding>,
    type_fn: Option<TypeFn>,
    q_enc: Rnn<GruCell>,
    col_proj: Linear,
    agg_head: Mlp,
    ncond_head: Mlp,
    sel_attn: BahdanauAttention,
    sel_score: Mlp,
    cond_attn: BahdanauAttention,
    cond_score: Mlp,
    op_head: Mlp,
    val_start: BahdanauAttention,
    val_end: BahdanauAttention,
    cfg: ModelConfig,
}

impl SqlNet {
    /// Builds an untrained model. `type_fn` enables TypeSQL-style type
    /// features.
    pub fn new(
        cfg: &ModelConfig,
        vocab: Vocab,
        space: &EmbeddingSpace,
        type_fn: Option<TypeFn>,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x50C1);
        let mut store = ParamStore::new();
        let table = crate::embed_init::pretrained_table(&vocab, space, cfg.word_dim, cfg.seed);
        let emb = Embedding::from_pretrained(&mut store, "sn.emb", table);
        let type_dim = 6;
        let type_emb = type_fn
            .is_some()
            .then(|| Embedding::new(&mut store, "sn.type", N_TYPES, type_dim, &mut rng));
        let in_dim = cfg.word_dim + if type_fn.is_some() { type_dim } else { 0 };
        let q_enc = Rnn::new(&mut store, "sn.enc", in_dim, cfg.hidden, 1, true, &mut rng);
        let mem = q_enc.out_dim();
        let col_dim = cfg.hidden;
        let col_proj = Linear::new(&mut store, "sn.col", cfg.word_dim, col_dim, &mut rng);
        let agg_head =
            Mlp::new(&mut store, "sn.agg", &[mem, cfg.hidden, 6], Activation::Tanh, &mut rng);
        let ncond_head = Mlp::new(
            &mut store,
            "sn.ncond",
            &[mem, cfg.hidden, MAX_CONDS + 1],
            Activation::Tanh,
            &mut rng,
        );
        let sel_attn =
            BahdanauAttention::new(&mut store, "sn.sattn", mem, col_dim, cfg.attn_dim, &mut rng);
        let sel_score = Mlp::new(
            &mut store,
            "sn.ssc",
            &[mem + col_dim, cfg.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let cond_attn =
            BahdanauAttention::new(&mut store, "sn.cattn", mem, col_dim, cfg.attn_dim, &mut rng);
        let cond_score = Mlp::new(
            &mut store,
            "sn.csc",
            &[mem + col_dim, cfg.hidden, 1],
            Activation::Tanh,
            &mut rng,
        );
        let op_head = Mlp::new(
            &mut store,
            "sn.op",
            &[mem + col_dim, cfg.hidden, 6],
            Activation::Tanh,
            &mut rng,
        );
        let val_start =
            BahdanauAttention::new(&mut store, "sn.vs", mem, col_dim, cfg.attn_dim, &mut rng);
        let val_end =
            BahdanauAttention::new(&mut store, "sn.ve", mem, col_dim, cfg.attn_dim, &mut rng);
        SqlNet {
            store,
            vocab,
            emb,
            type_emb,
            type_fn,
            q_enc,
            col_proj,
            agg_head,
            ncond_head,
            sel_attn,
            sel_score,
            cond_attn,
            cond_score,
            op_head,
            val_start,
            val_end,
            cfg: cfg.clone(),
        }
    }

    fn encode(&self, g: &mut Graph, question: &[String], table: &Table) -> NodeId {
        let ids: Vec<usize> = question.iter().map(|t| self.vocab.id(t)).collect();
        let mut x = self.emb.forward(g, &self.store, &ids);
        if let (Some(te), Some(tf)) = (&self.type_emb, self.type_fn) {
            let types = tf(question, table);
            debug_assert_eq!(types.len(), question.len());
            let t = te.forward(g, &self.store, &types);
            x = g.hcat(x, t);
        }
        self.q_enc.forward(g, &self.store, x)
    }

    fn col_rep(&self, g: &mut Graph, name: &str) -> NodeId {
        let toks = nlidb_text::tokenize(name);
        let ids: Vec<usize> = toks.iter().map(|t| self.vocab.id(t)).collect();
        let e = self.emb.forward(g, &self.store, &ids);
        let mean = g.mean_rows(e);
        let lin = self.col_proj.forward(g, &self.store, mean);
        g.tanh(lin)
    }

    fn column_logits(
        &self,
        g: &mut Graph,
        h: NodeId,
        table: &Table,
        attn: &BahdanauAttention,
        score: &Mlp,
    ) -> NodeId {
        let mut rows: Option<NodeId> = None;
        for name in table.column_names() {
            let col = self.col_rep(g, &name);
            let att = attn.forward(g, &self.store, h, col);
            let feats = g.hcat(att.context, col);
            let logit = score.forward(g, &self.store, feats);
            rows = Some(match rows {
                None => logit,
                Some(acc) => g.vcat(acc, logit),
            });
        }
        // lint:allow(panic-path): research baseline off the serving path (name-collision reachability only); tables always carry at least one column.
        let col_logits = rows.expect("table has columns");
        g.transpose(col_logits) // [1, ncols]
    }

    fn example_loss(&self, g: &mut Graph, e: &Example) -> NodeId {
        let h = self.encode(g, &e.question, &e.table);
        let pooled = g.mean_rows(h);
        let mut losses: Vec<NodeId> = Vec::new();

        let agg_logits = self.agg_head.forward(g, &self.store, pooled);
        let agg_lp = g.log_softmax_rows(agg_logits);
        // lint:allow(panic-path): research baseline off the serving path; `Agg::ALL` enumerates every variant, so the position always exists.
        let agg_idx = Agg::ALL.iter().position(|a| *a == e.query.agg).expect("agg");
        losses.push(g.pick_nll(agg_lp, vec![agg_idx]));

        let nc_logits = self.ncond_head.forward(g, &self.store, pooled);
        let nc_lp = g.log_softmax_rows(nc_logits);
        losses.push(g.pick_nll(nc_lp, vec![e.query.conds.len().min(MAX_CONDS)]));

        let sel_logits = self.column_logits(g, h, &e.table, &self.sel_attn, &self.sel_score);
        let sel_lp = g.log_softmax_rows(sel_logits);
        losses.push(g.pick_nll(sel_lp, vec![e.query.select_col]));

        let cond_logits = self.column_logits(g, h, &e.table, &self.cond_attn, &self.cond_score);
        let mut targets = Tensor::zeros(1, e.table.num_cols());
        for c in &e.query.conds {
            targets.set(0, c.col, 1.0);
        }
        losses.push(g.bce_with_logits(cond_logits, targets));

        for (ci, cond) in e.query.conds.iter().enumerate() {
            let col = self.col_rep(g, &e.table.column_names()[cond.col]);
            let att = self.cond_attn.forward(g, &self.store, h, col);
            let feats = g.hcat(att.context, col);
            let op_logits = self.op_head.forward(g, &self.store, feats);
            let op_lp = g.log_softmax_rows(op_logits);
            // lint:allow(panic-path): research baseline off the serving path; `CmpOp::ALL` enumerates every variant.
            let op_idx = CmpOp::ALL.iter().position(|o| *o == cond.op).expect("op");
            losses.push(g.pick_nll(op_lp, vec![op_idx]));

            let span = e
                .slots
                .iter()
                .find(|s| s.role == SlotRole::Cond(ci))
                .and_then(|s| s.val_span);
            if let Some((a, b)) = span {
                let vs = self.val_start.forward(g, &self.store, h, col);
                let s_row = g.transpose(vs.scores);
                let s_lp = g.log_softmax_rows(s_row);
                losses.push(g.pick_nll(s_lp, vec![a]));
                let ve = self.val_end.forward(g, &self.store, h, col);
                let e_row = g.transpose(ve.scores);
                let e_lp = g.log_softmax_rows(e_row);
                losses.push(g.pick_nll(e_lp, vec![b - 1]));
            }
        }
        let mut total = losses[0];
        for &l in &losses[1..] {
            total = g.add(total, l);
        }
        g.scale(total, 1.0 / losses.len() as f32)
    }

    /// Trains on a split through the crate's one training loop
    /// (`train::fit`), one step per example; returns final-epoch mean loss.
    pub fn train(&mut self, examples: &[Example], epochs: usize) -> f32 {
        crate::train::fit_slice(self, examples, epochs)
    }

    /// Predicts a query for a question/table pair.
    pub fn predict(&self, question: &[String], table: &Table) -> Option<Query> {
        if question.is_empty() || table.num_cols() == 0 {
            return None;
        }
        let mut g = Graph::new();
        let h = self.encode(&mut g, question, table);
        let pooled = g.mean_rows(h);
        let agg_logits = self.agg_head.forward(&mut g, &self.store, pooled);
        let agg = Agg::ALL[g.value(agg_logits).argmax_row(0)];
        let nc_logits = self.ncond_head.forward(&mut g, &self.store, pooled);
        let n_conds = g.value(nc_logits).argmax_row(0);
        let sel_logits = self.column_logits(&mut g, h, table, &self.sel_attn, &self.sel_score);
        let select_col = g.value(sel_logits).argmax_row(0);
        let cond_logits = self.column_logits(&mut g, h, table, &self.cond_attn, &self.cond_score);
        let mut col_scores: Vec<(usize, f32)> =
            g.value(cond_logits).row(0).iter().copied().enumerate().collect();
        col_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut query = Query { agg, select_col, conds: Vec::new() };
        for &(col, _) in col_scores.iter().take(n_conds) {
            let col_rep = self.col_rep(&mut g, &table.column_names()[col]);
            let att = self.cond_attn.forward(&mut g, &self.store, h, col_rep);
            let feats = g.hcat(att.context, col_rep);
            let op_logits = self.op_head.forward(&mut g, &self.store, feats);
            let op = CmpOp::ALL[g.value(op_logits).argmax_row(0)];
            let vs = self.val_start.forward(&mut g, &self.store, h, col_rep);
            let start = {
                let t = g.transpose(vs.scores);
                g.value(t).argmax_row(0)
            };
            let ve = self.val_end.forward(&mut g, &self.store, h, col_rep);
            let end = {
                let t = g.transpose(ve.scores);
                let raw = g.value(t).argmax_row(0);
                raw.clamp(start, question.len() - 1)
            };
            let text = question[start..=end.min(start + 5)].join(" ");
            query.conds.push(nlidb_sqlir::Cond { col, op, value: Literal::parse(&text) });
        }
        Some(query)
    }
}

impl Fit for SqlNet {
    type Item = Example;

    fn fit_spec(&self) -> FitSpec {
        let series = match self.type_fn {
            Some(_) => train_series!("typesql"),
            None => train_series!("sqlnet"),
        };
        FitSpec::per_example(&self.cfg, 0x50C2, series)
    }

    fn fit_store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Examples with an empty question are skipped.
    fn item_loss(&self, g: &mut Graph, e: &Example) -> Option<NodeId> {
        (!e.question.is_empty()).then(|| self.example_loss(g, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::build_input_vocab;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    fn setup() -> (SqlNet, nlidb_data::Dataset) {
        let cfg = ModelConfig::tiny();
        let ds = generate(&WikiSqlConfig::tiny(81));
        let vocab = build_input_vocab(&ds, &cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
        (SqlNet::new(&cfg, vocab, &space, None), ds)
    }

    #[test]
    fn predict_shape_is_valid() {
        let (model, ds) = setup();
        let e = &ds.dev[0];
        let q = model.predict(&e.question, &e.table).expect("prediction");
        assert!(q.select_col < e.table.num_cols());
        for c in &q.conds {
            assert!(c.col < e.table.num_cols());
        }
        assert!(q.conds.len() <= MAX_CONDS);
    }

    #[test]
    fn training_reduces_loss() {
        let (mut model, ds) = setup();
        let first = {
            let mut g = Graph::new();
            let l = model.example_loss(&mut g, &ds.train[0]);
            g.value(l).scalar()
        };
        let last = model.train(&ds.train[..24], 3);
        assert!(last.is_finite());
        assert!(last < first, "no learning: {first} -> {last}");
    }

    #[test]
    fn trained_model_predicts_consistently() {
        // At unit-test scale (36 training questions) accuracy is not
        // meaningful — the bench harness exercises real scale. Here we
        // check training monotonicity and prediction well-formedness.
        let (mut model, ds) = setup();
        let first = model.train(&ds.train, 1);
        let last = model.train(&ds.train, 3);
        assert!(last < first, "loss should keep dropping: {first} -> {last}");
        for e in &ds.dev {
            let q = model.predict(&e.question, &e.table).expect("prediction");
            assert!(q.select_col < e.table.num_cols());
        }
    }

    #[test]
    fn empty_question_returns_none() {
        let (model, ds) = setup();
        assert!(model.predict(&[], &ds.dev[0].table).is_none());
    }
}
