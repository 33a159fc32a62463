//! The sequence-to-sequence translation model `q^a -> s^a` (§V-B).
//!
//! Encoder: stacked bi-directional GRU with affine transforms between
//! layers. Decoder: attentive GRU (Bahdanau) whose step input is
//! `[φ(s^a_{i-1}) ; β_{i-1}]`, initialized from
//! `d_0 = tanh(W_1 [h⃗_N ; h⃖_1])`.
//!
//! **Copy mechanism** exactly as the paper defines it: the output is
//! sampled from `p(s_i | ·) ∝ exp(U[d_i, β_i]) + M_i` where
//! `M_i[s] = Σ_{j : src_j = s} exp(e_ij)` adds raw-attention mass to
//! output tokens that appear in the source — which, after annotation, is
//! precisely the placeholder symbols (`c_i`/`v_i`/`g_i`). This differs
//! from a softmax over the full vocabulary and is what lets the model
//! favor source placeholders over memorized tokens.

use nlidb_neural::{AttentionOut, BahdanauAttention, Cell, Embedding, GruCell, Linear, Rnn};
use nlidb_tensor::{Graph, NodeId, ParamStore, Tensor};
use nlidb_text::{EmbeddingSpace, Vocab};
use nlidb_tensor::Rng;

use crate::config::ModelConfig;
use crate::train::{train_series, Fit, FitSpec};
use crate::vocab::OutVocab;

/// Maximum decoded target length (annotated SQL is short).
pub const MAX_DECODE_LEN: usize = 24;

/// An observer of the beam search, called as it runs.
///
/// The library's guided path does not use it:
/// `pipeline::Nlidb::predict_guided` decodes with
/// [`Seq2Seq::decode_beam_ranked`] and judges candidates lazily, after
/// the search, in rank order. The trait and [`Seq2Seq::decode_beam_guided`]
/// remain for the serving benchmark's traced replay, which still judges
/// every completed candidate as the search produces it, and for the test
/// that pins the search as unchanged under any observer.
///
/// A guide is **never a reorderer**: the beam search explores, scores,
/// ranks, and truncates candidates exactly as the unguided
/// [`Seq2Seq::decode_beam`] does. Letting verdicts free beam slots
/// mid-search would admit continuations the unguided search prunes,
/// silently changing the top candidate (see DESIGN.md
/// "Execution-guided decoding").
pub trait DecodeGuide {
    /// Called once per decode step with the step index and the number of
    /// beams still extending (cost accounting; must not affect output).
    fn on_step(&mut self, step: usize, live_beams: usize);

    /// Judges a completed candidate (EOS reached). The search ignores
    /// the answer. Must be a pure function of `seq`.
    fn admit(&mut self, seq: &[usize]) -> bool;
}

/// One training item: encoded source, per-position copy alignment, and
/// target ids (ending in EOS).
#[derive(Debug, Clone)]
pub struct Seq2SeqItem {
    /// Source token ids (input vocabulary).
    pub src: Vec<usize>,
    /// For each source position, the output-vocab id it may be copied as.
    pub copy: Vec<Option<usize>>,
    /// Target output-vocab ids, ending with EOS.
    pub tgt: Vec<usize>,
}

/// The seq2seq model.
pub struct Seq2Seq {
    /// Parameter store (exposed for checkpointing).
    pub store: ParamStore,
    out_vocab: OutVocab,
    emb: Embedding,
    out_emb: Embedding,
    encoder: Rnn<GruCell>,
    dec_cell: GruCell,
    attn: BahdanauAttention,
    d0_proj: Linear,
    u: Linear,
    copy_enabled: bool,
    cfg: ModelConfig,
}

impl Seq2Seq {
    /// Builds an untrained model over the given vocabularies.
    pub fn new(
        cfg: &ModelConfig,
        in_vocab: &Vocab,
        out_vocab: OutVocab,
        space: &EmbeddingSpace,
        copy_enabled: bool,
    ) -> Self {
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x5E25E9);
        let mut store = ParamStore::new();
        let table = crate::embed_init::pretrained_table(in_vocab, space, cfg.word_dim, cfg.seed);
        let emb = Embedding::from_pretrained(&mut store, "s2s.emb", table);
        let out_emb =
            Embedding::new(&mut store, "s2s.out_emb", out_vocab.len(), cfg.word_dim, &mut rng);
        let encoder = Rnn::new(
            &mut store,
            "s2s.enc",
            cfg.word_dim,
            cfg.hidden,
            cfg.enc_layers,
            true,
            &mut rng,
        );
        let mem_dim = encoder.out_dim();
        // Paper: decoder hidden is 2 × encoder hidden.
        let dec_hidden = 2 * cfg.hidden;
        let dec_cell =
            GruCell::new(&mut store, "s2s.dec", cfg.word_dim + mem_dim, dec_hidden, &mut rng);
        let attn =
            BahdanauAttention::new(&mut store, "s2s.attn", mem_dim, dec_hidden, cfg.attn_dim, &mut rng);
        let d0_proj = Linear::new(&mut store, "s2s.d0", mem_dim, dec_hidden, &mut rng);
        let u = Linear::new(&mut store, "s2s.u", dec_hidden + mem_dim, out_vocab.len(), &mut rng);
        Seq2Seq {
            store,
            out_vocab,
            emb,
            out_emb,
            encoder,
            dec_cell,
            attn,
            d0_proj,
            u,
            copy_enabled,
            cfg: cfg.clone(),
        }
    }

    /// The output vocabulary.
    pub fn out_vocab(&self) -> &OutVocab {
        &self.out_vocab
    }

    /// Whether the copy mechanism is enabled.
    pub fn copy_enabled(&self) -> bool {
        self.copy_enabled
    }

    /// Builds the `[n, V]` copy-alignment indicator matrix.
    fn copy_matrix(&self, copy: &[Option<usize>]) -> Tensor {
        let mut m = Tensor::zeros(copy.len(), self.out_vocab.len());
        for (j, c) in copy.iter().enumerate() {
            if let Some(o) = c {
                m.set(j, *o, 1.0);
            }
        }
        m
    }

    /// The §V-B encoder, shared by training and inference: embeds `src`,
    /// runs the bi-GRU stack into `H`, and initializes the decoder with
    /// `d_0 = tanh(W_1 [h⃗_N ; h⃖_1])`. Returns `(H, d_0)`.
    fn encode(&self, g: &mut Graph, src: &[usize]) -> (NodeId, NodeId) {
        let src_emb = self.emb.forward(g, &self.store, src);
        let h = self.encoder.forward(g, &self.store, src_emb);
        let summary = self.encoder.final_summary(g, h);
        let d0_lin = self.d0_proj.forward(g, &self.store, summary);
        (h, g.tanh(d0_lin))
    }

    /// One §V-B decoder step, shared by training and inference: the GRU
    /// reads `[φ(prev_tok) ; β_{i-1}]`, the new state `d_i` attends over
    /// `H`, and `U[d_i, β_i]` scores the output vocabulary. Returns
    /// `d_i`, the attention (context `β_i` and the raw scores the copy
    /// mechanism adds), and the `[1, V]` logits.
    fn step(
        &self,
        g: &mut Graph,
        h: NodeId,
        d_prev: NodeId,
        beta_prev: NodeId,
        prev_tok: usize,
    ) -> (NodeId, AttentionOut, NodeId) {
        let prev_emb = self.out_emb.forward(g, &self.store, &[prev_tok]);
        let dec_in = g.hcat(prev_emb, beta_prev);
        let d = self.dec_cell.step(g, &self.store, dec_in, d_prev);
        let att = self.attn.forward(g, &self.store, h, d);
        let feats = g.hcat(d, att.context);
        let logits = self.u.forward(g, &self.store, feats);
        (d, att, logits)
    }

    /// Teacher-forced loss for one item (differentiable).
    pub fn forward_loss(&self, g: &mut Graph, item: &Seq2SeqItem) -> NodeId {
        assert!(!item.src.is_empty() && !item.tgt.is_empty());
        let (h, mut d) = self.encode(g, &item.src);
        let mut beta = g.leaf(Tensor::zeros(1, self.encoder.out_dim()));
        let copy_m = if self.copy_enabled { Some(g.leaf(self.copy_matrix(&item.copy))) } else { None };

        let mut losses: Option<NodeId> = None;
        let mut prev_tok = self.out_vocab.bos();
        for &tgt in &item.tgt {
            let (d_next, att, logits) = self.step(g, h, d, beta, prev_tok);
            d = d_next;
            beta = att.context;
            let step_loss = match &copy_m {
                None => {
                    let logp = g.log_softmax_rows(logits);
                    g.pick_nll(logp, vec![tgt])
                }
                Some(m) => {
                    // Stabilize both exponentials by the common max.
                    let scores_row = g.transpose(att.scores); // [1, n]
                    let max_l = g
                        .value(logits)
                        .data()
                        .iter()
                        .cloned()
                        .fold(f32::NEG_INFINITY, f32::max);
                    let max_s = g
                        .value(scores_row)
                        .data()
                        .iter()
                        .cloned()
                        .fold(f32::NEG_INFINITY, f32::max);
                    let shift = max_l.max(max_s);
                    let l_sh = g.add_scalar(logits, -shift);
                    let u_exp = g.exp(l_sh);
                    let s_sh = g.add_scalar(scores_row, -shift);
                    let e_exp = g.exp(s_sh);
                    let copy_mass = g.matmul(e_exp, *m); // [1, V]
                    let p_unnorm = g.add(u_exp, copy_mass);
                    let safe = g.add_scalar(p_unnorm, 1e-10);
                    let total = g.sum_all(safe);
                    let ln_total = g.ln(total);
                    let col = g.transpose(safe); // [V, 1]
                    let p_tgt = g.row_slice(col, tgt, tgt + 1); // [1, 1]
                    let ln_tgt = g.ln(p_tgt);
                    g.sub(ln_total, ln_tgt)
                }
            };
            losses = Some(match losses {
                None => step_loss,
                Some(acc) => g.add(acc, step_loss),
            });
            prev_tok = tgt;
        }
        // lint:allow(panic-path): training-only loss fold; `tgt` is non-empty for every corpus item (BOS/EOS framing), and serving never calls `loss`.
        let total = losses.expect("at least one step");
        g.scale(total, 1.0 / item.tgt.len() as f32)
    }

    /// Trains with Adam + global-norm clipping through the crate's one
    /// training loop (`train::fit`), in shuffled minibatches of
    /// `cfg.batch_size` (`1` is the classic per-example SGD walk). Returns
    /// the final-epoch mean loss.
    pub fn train(&mut self, data: &[Seq2SeqItem], epochs: usize) -> f32 {
        crate::train::fit_slice(self, data, epochs)
    }

    /// Encodes a source for inference, returning `(H, d0, β0)` values.
    ///
    /// The caller-provided graph is reset and reused, so decode loops
    /// recycle one tape's buffers across the encode and every step.
    fn encode_values(&self, g: &mut Graph, src: &[usize]) -> (Tensor, Tensor, Tensor) {
        g.reset();
        let (h, d0) = self.encode(g, src);
        (
            g.value(h).clone(),
            g.value(d0).clone(),
            Tensor::zeros(1, self.encoder.out_dim()),
        )
    }

    /// One decode step (inference): returns per-token probabilities and
    /// the next `(d, β)` state.
    fn decode_step(
        &self,
        g: &mut Graph,
        h: &Tensor,
        d_prev: &Tensor,
        beta_prev: &Tensor,
        prev_tok: usize,
        copy_m: &Option<Tensor>,
    ) -> (Vec<f32>, Tensor, Tensor) {
        g.reset();
        let h_node = g.leaf(h.clone());
        let d_node = g.leaf(d_prev.clone());
        let b_node = g.leaf(beta_prev.clone());
        let (d, att, logits) = self.step(g, h_node, d_node, b_node, prev_tok);
        let probs: Vec<f32> = match copy_m {
            None => {
                let p = g.softmax_rows(logits);
                g.value(p).data().to_vec()
            }
            Some(m) => {
                let l = g.value(logits).data().to_vec();
                let scores = g.value(att.scores).data().to_vec();
                let shift = l
                    .iter()
                    .chain(&scores)
                    .cloned()
                    .fold(f32::NEG_INFINITY, f32::max);
                let mut p: Vec<f32> = l.iter().map(|&x| (x - shift).exp()).collect();
                for (j, &s) in scores.iter().enumerate() {
                    let mass = (s - shift).exp();
                    for (v, pv) in p.iter_mut().enumerate() {
                        let w = m.get(j, v);
                        if w > 0.0 {
                            *pv += w * mass;
                        }
                    }
                }
                let total: f32 = p.iter().sum::<f32>().max(1e-12);
                p.iter().map(|x| x / total).collect()
            }
        };
        (probs, g.value(d).clone(), g.value(att.context).clone())
    }

    /// Beam-search decoding (paper: width 5). Returns the best token
    /// sequence (without EOS).
    pub fn decode_beam(&self, src: &[usize], copy: &[Option<usize>], width: usize) -> Vec<usize> {
        self.decode_beam_ranked(src, copy, width).into_iter().next().unwrap_or_default()
    }

    /// [`Self::decode_beam`], returning **every** final beam candidate in
    /// descending-score order (the first element is exactly what
    /// `decode_beam` returns). The pipeline decodes through this one
    /// call; the ranked tail is what the execution-guided repair walk
    /// falls back through.
    pub fn decode_beam_ranked(
        &self,
        src: &[usize],
        copy: &[Option<usize>],
        width: usize,
    ) -> Vec<Vec<usize>> {
        self.beam_candidates(src, copy, width, None)
    }

    /// [`Self::decode_beam_ranked`] with a [`DecodeGuide`] observing the
    /// search: `on_step` fires each decode step, `admit` fires the
    /// moment a candidate completes. The returned ranking is
    /// byte-identical to the unguided one; the guide never prunes or
    /// reorders beams (see [`DecodeGuide`] for who still calls this).
    pub fn decode_beam_guided(
        &self,
        src: &[usize],
        copy: &[Option<usize>],
        width: usize,
        guide: &mut dyn DecodeGuide,
    ) -> Vec<Vec<usize>> {
        self.beam_candidates(src, copy, width, Some(guide))
    }

    /// The one beam-search loop behind `decode_beam`,
    /// `decode_beam_ranked`, and `decode_beam_guided`: identical
    /// exploration/scoring/truncation in all three, with the guide (when
    /// present) strictly observing.
    fn beam_candidates(
        &self,
        src: &[usize],
        copy: &[Option<usize>],
        width: usize,
        mut guide: Option<&mut dyn DecodeGuide>,
    ) -> Vec<Vec<usize>> {
        assert!(width >= 1);
        let mut g = Graph::new();
        let (h, d0, b0) = self.encode_values(&mut g, src);
        let copy_m = if self.copy_enabled { Some(self.copy_matrix(copy)) } else { None };
        let eos = self.out_vocab.eos();
        let bos = self.out_vocab.bos();

        struct Beam {
            seq: Vec<usize>,
            logp: f32,
            d: Tensor,
            beta: Tensor,
            done: bool,
        }
        let mut beams =
            vec![Beam { seq: Vec::new(), logp: 0.0, d: d0, beta: b0, done: false }];
        for step in 0..MAX_DECODE_LEN {
            if beams.iter().all(|b| b.done) {
                break;
            }
            if let Some(gd) = guide.as_deref_mut() {
                gd.on_step(step, beams.iter().filter(|b| !b.done).count());
            }
            let mut next: Vec<Beam> = Vec::new();
            for b in &beams {
                if b.done {
                    next.push(Beam {
                        seq: b.seq.clone(),
                        logp: b.logp,
                        d: b.d.clone(),
                        beta: b.beta.clone(),
                        done: true,
                    });
                    continue;
                }
                let prev = *b.seq.last().unwrap_or(&bos);
                let (probs, d, beta) =
                    self.decode_step(&mut g, &h, &b.d, &b.beta, prev, &copy_m);
                // Top `width` continuations of this beam.
                let mut idx: Vec<usize> = (0..probs.len()).collect();
                idx.sort_by(|&x, &y| probs[y].total_cmp(&probs[x]));
                for &tok in idx.iter().take(width) {
                    let mut seq = b.seq.clone();
                    let done = tok == eos;
                    if !done {
                        seq.push(tok);
                    } else if let Some(gd) = guide.as_deref_mut() {
                        // Candidate completion: judge (and memoize) now,
                        // while the search is still running. The verdict
                        // is *recorded*, not acted on — pruning here
                        // would free a beam slot and reorder the search.
                        let _ = gd.admit(&seq);
                    }
                    next.push(Beam {
                        seq,
                        logp: b.logp + probs[tok].max(1e-12).ln(),
                        d: d.clone(),
                        beta: beta.clone(),
                        done,
                    });
                }
            }
            next.sort_by(|a, b| b.logp.total_cmp(&a.logp));
            next.truncate(width);
            beams = next;
        }
        beams.sort_by(|a, b| b.logp.total_cmp(&a.logp));
        beams.into_iter().map(|b| b.seq).collect()
    }
}

impl Fit for Seq2Seq {
    type Item = Seq2SeqItem;

    fn fit_spec(&self) -> FitSpec {
        FitSpec::minibatched(&self.cfg, 0x7EAC4, train_series!("seq2seq"))
    }

    fn fit_store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn item_loss(&self, g: &mut Graph, item: &Seq2SeqItem) -> Option<NodeId> {
        Some(self.forward_loss(g, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_sqlir::{AnnTok, AnnotatedSql};
    use nlidb_text::Vocab;

    /// A toy task: input is a shuffled list of symbol tokens; output is
    /// "select <first symbol> where <second symbol> = <third symbol>".
    fn toy_data(
        cfg: &ModelConfig,
        vocab: &Vocab,
        ov: &OutVocab,
        n: usize,
        seed: u64,
    ) -> Vec<Seq2SeqItem> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut out = Vec::new();
        for _ in 0..n {
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
                AnnTok::Op(nlidb_sqlir::CmpOp::Eq),
                AnnTok::V(v),
            ]);
            out.push(Seq2SeqItem { src, copy, tgt: ov.encode(&sa) });
        }
        let _ = cfg;
        out
    }

    fn setup() -> (ModelConfig, Vocab, OutVocab, EmbeddingSpace) {
        let cfg = ModelConfig::tiny();
        let mut vocab = Vocab::new();
        for i in 1..=6 {
            vocab.add(&format!("c{i}"));
            vocab.add(&format!("v{i}"));
            vocab.add(&format!("g{i}"));
        }
        for w in ["which", "thing", "?"] {
            vocab.add(w);
        }
        let ov = OutVocab::new(&cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 3);
        (cfg, vocab, ov, space)
    }

    #[test]
    fn forward_loss_is_finite_and_positive() {
        let (cfg, vocab, ov, space) = setup();
        let model = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, true);
        let data = toy_data(&cfg, &vocab, &ov, 3, 1);
        for item in &data {
            let mut g = Graph::new();
            let loss = model.forward_loss(&mut g, item);
            let v = g.value(loss).scalar();
            assert!(v.is_finite() && v > 0.0, "loss = {v}");
        }
    }

    #[test]
    fn copy_and_nocopy_losses_differ() {
        let (cfg, vocab, ov, space) = setup();
        let with = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, true);
        let without = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, false);
        let data = toy_data(&cfg, &vocab, &ov, 1, 2);
        let mut g1 = Graph::new();
        let l1 = with.forward_loss(&mut g1, &data[0]);
        let mut g2 = Graph::new();
        let l2 = without.forward_loss(&mut g2, &data[0]);
        assert_ne!(g1.value(l1).scalar(), g2.value(l2).scalar());
    }

    #[test]
    fn training_learns_toy_copy_task() {
        let (cfg, vocab, ov, space) = setup();
        let mut model = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, true);
        let data = toy_data(&cfg, &vocab, &ov, 60, 3);
        let loss = model.train(&data, 6);
        assert!(loss < 0.35, "toy task did not converge: {loss}");
        // Held-out check: same generator, later seed.
        let test = toy_data(&cfg, &vocab, &ov, 12, 99);
        let mut exact = 0;
        for item in &test {
            let pred = model.decode_beam(&item.src, &item.copy, 1);
            let mut gold = item.tgt.clone();
            gold.pop(); // strip EOS
            if pred == gold {
                exact += 1;
            }
        }
        assert!(exact >= 9, "greedy exact-match too low: {exact}/12");
    }

    #[test]
    fn beam_is_no_worse_than_greedy_on_toy() {
        let (cfg, vocab, ov, space) = setup();
        let mut model = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, true);
        let data = toy_data(&cfg, &vocab, &ov, 50, 4);
        model.train(&data, 5);
        let test = toy_data(&cfg, &vocab, &ov, 10, 77);
        let mut greedy_ok = 0;
        let mut beam_ok = 0;
        for item in &test {
            let mut gold = item.tgt.clone();
            gold.pop();
            if model.decode_beam(&item.src, &item.copy, 1) == gold {
                greedy_ok += 1;
            }
            if model.decode_beam(&item.src, &item.copy, 5) == gold {
                beam_ok += 1;
            }
        }
        assert!(beam_ok >= greedy_ok, "beam {beam_ok} < greedy {greedy_ok}");
    }

    #[test]
    fn decode_terminates_within_max_len() {
        let (cfg, vocab, ov, space) = setup();
        let model = Seq2Seq::new(&cfg, &vocab, ov.clone(), &space, true);
        let data = toy_data(&cfg, &vocab, &ov, 1, 5);
        let pred = model.decode_beam(&data[0].src, &data[0].copy, 3);
        assert!(pred.len() <= MAX_DECODE_LEN);
    }
}
