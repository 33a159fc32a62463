//! The Column Mention Binary Classifier (§IV-B).
//!
//! Given a question `q` and a column `c`, predicts whether `c` is
//! mentioned in `q`. Architecture exactly as in the paper (Figure 3):
//!
//! 1. **Word embedder** — pre-trained word embedding ⊕ multi-width
//!    char-CNN features (Figure 4).
//! 2. **Sequence models** — a stacked LSTM over the question and a
//!    separate bi-directional LSTM over the column words, each with an
//!    affine transform before the recurrence.
//! 3. **Attention LSTM** — a bi-directional LSTM over the column states
//!    whose step input is `z_t = [s^c_t ; S^q α_t]`, where the attention
//!    over question states is conditioned on `(s^c_t, d_{t-1})`; the
//!    per-step states are zero-padded to a fixed column length,
//!    concatenated, and fed to an MLP head producing one logit.
//!
//! The forward pass is [`MentionClassifier::encode_question`] (steps 1–2
//! for the question, which depend only on `q`) followed by
//! [`MentionClassifier::score_column`] (steps 1–3 for one column). The
//! detector encodes a question once and scores every column on that one
//! tape. Each [`ClassifierOutput`] exposes the question's word/char
//! embedding rows, passed through [`Graph::track`], so the §IV-C
//! adversarial method can read `dL/dE_word(w)` and `dL/dE_char(w)` after
//! `backward`, on a training tape and on a frozen one alike.

use nlidb_neural::rnn::run;
use nlidb_neural::{Activation, BahdanauAttention, Cell, CharCnn, Embedding, LstmCell, Mlp, Rnn};
use nlidb_tensor::{Graph, NodeId, ParamStore, Tensor};
use nlidb_text::{CharVocab, EmbeddingSpace, Vocab};
use nlidb_tensor::Rng;

use crate::config::ModelConfig;
use crate::train::{train_series, Fit, FitSpec};

/// Maximum number of column words the head is sized for; longer column
/// names are truncated (WikiSQL headers are short).
pub const MAX_COL_WORDS: usize = 4;

/// The trained classifier.
pub struct MentionClassifier {
    /// Parameter store (exposed for checkpointing).
    pub store: ParamStore,
    vocab: Vocab,
    word_emb: Embedding,
    char_cnn: CharCnn,
    q_lstm: Rnn<LstmCell>,
    c_lstm: Rnn<LstmCell>,
    attn: BahdanauAttention,
    fwd_cell: LstmCell,
    bwd_cell: LstmCell,
    head: Mlp,
    cfg: ModelConfig,
}

/// The question side of a forward pass on one tape, from
/// [`MentionClassifier::encode_question`]: the states `S^q` the column
/// attention reads, and the tracked embedding rows.
#[derive(Debug, Clone, Copy)]
pub struct QuestionEncoding {
    states: NodeId,
    word_nodes: NodeId,
    char_nodes: NodeId,
}

/// Nodes of interest from one forward pass.
pub struct ClassifierOutput {
    /// The single mention logit, `[1, 1]`.
    pub logit: NodeId,
    /// Question word-embedding rows `[n, word_dim]` (for `I_word`).
    pub word_nodes: NodeId,
    /// Question char-feature rows `[n, char_total]` (for `I_char`).
    pub char_nodes: NodeId,
}

impl MentionClassifier {
    /// Builds an untrained classifier. `vocab` is the input vocabulary;
    /// word embeddings are initialized from the synthetic pre-trained
    /// space.
    pub fn new(cfg: &ModelConfig, vocab: Vocab, space: &EmbeddingSpace) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xC1A551F1E5);
        let mut store = ParamStore::new();
        // Pre-trained init: project the space's vectors into word_dim.
        let table = crate::embed_init::pretrained_table(&vocab, space, cfg.word_dim, cfg.seed);
        let word_emb = Embedding::from_pretrained(&mut store, "mc.word", table);
        let char_cnn = CharCnn::new(
            &mut store,
            "mc.char",
            CharVocab::SIZE,
            cfg.char_dim,
            &cfg.char_widths,
            cfg.char_out,
            &mut rng,
        );
        let emb_dim = cfg.emb_dim();
        let q_lstm = Rnn::new(&mut store, "mc.q", emb_dim, cfg.hidden, 1, false, &mut rng);
        let c_lstm = Rnn::new(&mut store, "mc.c", emb_dim, cfg.hidden, 1, true, &mut rng);
        let c_state = 2 * cfg.hidden;
        // Attention query is [s^c_t ; d_{t-1}].
        let attn = BahdanauAttention::new(
            &mut store,
            "mc.attn",
            cfg.hidden,
            c_state + cfg.hidden,
            cfg.attn_dim,
            &mut rng,
        );
        let z_dim = c_state + cfg.hidden; // [s^c_t ; context]
        let fwd_cell = LstmCell::new(&mut store, "mc.fwd", z_dim, cfg.hidden, &mut rng);
        let bwd_cell = LstmCell::new(&mut store, "mc.bwd", z_dim, cfg.hidden, &mut rng);
        let head = Mlp::new(
            &mut store,
            "mc.head",
            &[MAX_COL_WORDS * 2 * cfg.hidden, cfg.hidden, 1],
            Activation::Relu,
            &mut rng,
        );
        MentionClassifier {
            store,
            vocab,
            word_emb,
            char_cnn,
            q_lstm,
            c_lstm,
            attn,
            fwd_cell,
            bwd_cell,
            head,
            cfg: cfg.clone(),
        }
    }

    /// The input vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Embeds a token sequence: word rows and char rows (separately, so
    /// their gradients are separable as the paper requires).
    fn embed(
        &self,
        g: &mut Graph,
        tokens: &[String],
    ) -> (NodeId, NodeId) {
        let ids: Vec<usize> = tokens.iter().map(|t| self.vocab.id(t)).collect();
        let words = self.word_emb.forward(g, &self.store, &ids);
        let chars: Vec<Vec<usize>> = tokens.iter().map(|t| CharVocab::encode(t)).collect();
        let char_feats = self.char_cnn.forward_words(g, &self.store, &chars);
        (words, char_feats)
    }

    /// Full forward pass for `(question, column)`:
    /// [`Self::encode_question`], then [`Self::score_column`].
    pub fn forward(
        &self,
        g: &mut Graph,
        question: &[String],
        column: &[String],
    ) -> ClassifierOutput {
        let q = self.encode_question(g, question);
        self.score_column(g, &q, column)
    }

    /// The question side of the forward pass, which no column changes:
    /// word and char embedding rows (each passed through [`Graph::track`])
    /// and the stacked LSTM over them.
    pub fn encode_question(&self, g: &mut Graph, question: &[String]) -> QuestionEncoding {
        assert!(!question.is_empty(), "empty question");
        let (words, chars) = self.embed(g, question);
        let word_nodes = g.track(words);
        let char_nodes = g.track(chars);
        let q_emb = g.hcat(word_nodes, char_nodes);
        let states = self.q_lstm.forward(g, &self.store, q_emb); // [n, h]
        QuestionEncoding { states, word_nodes, char_nodes }
    }

    /// The forward pass of `column` for a question encoded on `g`: the
    /// column's embedding and bi-LSTM, the attention bi-LSTM, and the head.
    /// Names longer than [`MAX_COL_WORDS`] words are truncated.
    pub fn score_column(
        &self,
        g: &mut Graph,
        q: &QuestionEncoding,
        column: &[String],
    ) -> ClassifierOutput {
        assert!(!column.is_empty(), "empty column");
        let column = column.get(..MAX_COL_WORDS).unwrap_or(column);
        let (c_words, c_chars) = self.embed(g, column);
        let c_emb = g.hcat(c_words, c_chars);
        let s_c = self.c_lstm.forward(g, &self.store, c_emb); // [m, 2h]

        // Attention bi-LSTM over the column (§IV-B(iii)): step `t` reads
        // z_t = [s^c_t ; attn(S^q, [s^c_t ; d_{t-1}])].
        let z = |g: &mut Graph, t: usize, d: NodeId| {
            let s_ct = g.row(s_c, t);
            let query = g.hcat(s_ct, d);
            let att = self.attn.forward(g, &self.store, q.states, query);
            g.hcat(s_ct, att.context)
        };
        let states_fwd = run(g, &self.store, &self.fwd_cell, column.len(), false, z);
        let states_bwd = run(g, &self.store, &self.bwd_cell, column.len(), true, z);
        // d_t = [fwd_t ; bwd_t], zero-padded to MAX_COL_WORDS, concatenated.
        let d = |g: &mut Graph, t: usize| match (states_fwd.get(t), states_bwd.get(t)) {
            (Some(&fwd), Some(&bwd)) => g.hcat(fwd, bwd),
            _ => g.leaf(Tensor::zeros(1, 2 * self.cfg.hidden)),
        };
        let first = d(g, 0);
        let feat = (1..MAX_COL_WORDS).fold(first, |acc, t| {
            let d_t = d(g, t);
            g.hcat(acc, d_t)
        });
        let logit = self.head.forward(g, &self.store, feat);
        ClassifierOutput { logit, word_nodes: q.word_nodes, char_nodes: q.char_nodes }
    }

    /// Mention probability for `(question, column)`, from one forward on
    /// a frozen tape: the `sigmoid` of the logit a training tape computes.
    pub fn predict(&self, question: &[String], column: &[String]) -> f32 {
        self.predict_in(&mut Graph::frozen(), question, column)
    }

    /// [`Self::predict`] on a fresh frozen tape that replaces `g`;
    /// whatever `g` held before is dropped, since no tape is reused.
    pub fn predict_in(&self, g: &mut Graph, question: &[String], column: &[String]) -> f32 {
        *g = Graph::frozen();
        let out = self.forward(g, question, column);
        let p = g.sigmoid(out.logit);
        g.value(p).scalar()
    }

    /// Trains on `(question, column, mentioned?)` triples through the
    /// crate's one training loop (`train::fit`), in shuffled minibatches of
    /// `cfg.batch_size` (`1` is the classic per-example SGD walk). Returns
    /// the final-epoch mean loss.
    pub fn train(&mut self, data: &[(Vec<String>, Vec<String>, bool)], epochs: usize) -> f32 {
        crate::train::fit_slice(self, data, epochs)
    }
}

impl Fit for MentionClassifier {
    type Item = (Vec<String>, Vec<String>, bool);

    fn fit_spec(&self) -> FitSpec {
        FitSpec::minibatched(&self.cfg, 0x7EA1, train_series!("mention"))
    }

    fn fit_store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn item_loss(&self, g: &mut Graph, (q, c, label): &Self::Item) -> Option<NodeId> {
        let out = self.forward(g, q, c);
        let target = Tensor::row_vector(&[if *label { 1.0 } else { 0.0 }]);
        Some(g.bce_with_logits(out.logit, target))
    }
}

/// Builds classifier training triples from a dataset: every
/// (question, column) pair with label = "column used by the gold query".
pub fn training_pairs(ds: &[nlidb_data::Example]) -> Vec<(Vec<String>, Vec<String>, bool)> {
    let mut out = Vec::new();
    for e in ds {
        let used: std::collections::HashSet<usize> = std::iter::once(e.query.select_col)
            .chain(e.query.conds.iter().map(|c| c.col))
            .collect();
        for (ci, name) in e.table.column_names().iter().enumerate() {
            let col_tokens = nlidb_text::tokenize(name);
            out.push((e.question.clone(), col_tokens, used.contains(&ci)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_text::tokenize;

    fn tiny_classifier() -> MentionClassifier {
        let cfg = ModelConfig::tiny();
        let ds = generate(&WikiSqlConfig::tiny(21));
        let vocab = crate::vocab::build_input_vocab(&ds, &cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
        MentionClassifier::new(&cfg, vocab, &space)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let clf = tiny_classifier();
        let mut g = Graph::new();
        let q = tokenize("which film was directed by jerzy antczak?");
        let c = tokenize("director");
        let out = clf.forward(&mut g, &q, &c);
        assert_eq!(g.value(out.logit).shape(), (1, 1));
        assert!(g.value(out.logit).all_finite());
        assert_eq!(g.value(out.word_nodes).rows(), q.len());
        assert_eq!(g.value(out.char_nodes).rows(), q.len());
    }

    #[test]
    fn long_column_names_are_truncated() {
        let clf = tiny_classifier();
        let mut g = Graph::new();
        let q = tokenize("what is it?");
        let c = tokenize("a very long column name with many words");
        let out = clf.forward(&mut g, &q, &c);
        assert!(g.value(out.logit).all_finite());
    }

    #[test]
    fn predict_is_a_probability() {
        let clf = tiny_classifier();
        let p = clf.predict(&tokenize("which film?"), &tokenize("film name"));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn input_gradients_are_available_after_backward() {
        let clf = tiny_classifier();
        let mut g = Graph::new();
        let q = tokenize("which film was directed by jerzy antczak?");
        let out = clf.forward(&mut g, &q, &tokenize("director"));
        let loss = g.bce_with_logits(out.logit, Tensor::row_vector(&[1.0]));
        g.backward(loss);
        let wg = g.grad(out.word_nodes).expect("word grads");
        let cg = g.grad(out.char_nodes).expect("char grads");
        assert_eq!(wg.rows(), q.len());
        assert_eq!(cg.rows(), q.len());
        assert!(wg.norm() > 0.0, "word gradient is zero");
    }

    #[test]
    fn training_pairs_label_used_columns() {
        let ds = generate(&WikiSqlConfig::tiny(22));
        let pairs = training_pairs(&ds.train[..4]);
        // Each example contributes one pair per column.
        let expected: usize = ds.train[..4].iter().map(|e| e.table.num_cols()).sum();
        assert_eq!(pairs.len(), expected);
        assert!(pairs.iter().any(|(_, _, l)| *l));
        assert!(pairs.iter().any(|(_, _, l)| !*l));
    }

    #[test]
    fn training_reduces_loss() {
        let mut clf = tiny_classifier();
        let ds = generate(&WikiSqlConfig::tiny(21));
        let pairs = training_pairs(&ds.train[..12]);
        let mut g = Graph::new();
        let (q, c, l) = &pairs[0];
        let out = clf.forward(&mut g, q, c);
        let t = Tensor::row_vector(&[if *l { 1.0 } else { 0.0 }]);
        let loss_node = g_loss(&mut g, out.logit, t.clone());
        let initial = g.value(loss_node).scalar();
        let final_loss = clf.train(&pairs, 2);
        assert!(
            final_loss < initial + 0.1,
            "training diverged: {initial} -> {final_loss}"
        );
        assert!(clf.store.all_finite());
    }

    fn g_loss(g: &mut Graph, logit: NodeId, t: Tensor) -> NodeId {
        g.bce_with_logits(logit, t)
    }
}
