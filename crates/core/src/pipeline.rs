//! The end-to-end NLIDB (§I's three-step framework).
//!
//! [`Nlidb::train`] fits the mention-detection stack and the annotated
//! seq2seq model on a training split; [`Nlidb::predict`] runs
//! `q -> q^a -> s^a -> s` on a new question/table pair — including tables
//! and domains never seen in training, which is the transfer-learnability
//! claim under test.

use nlidb_data::stream::{ExampleSource, StreamError};
use nlidb_data::{Dataset, Example};
use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_sqlir::{recover, AnnotatedSql, AnnotationMap, Query};
use nlidb_storage::Table;
use nlidb_tensor::Rng;
use nlidb_text::{EmbeddingSpace, Lexicon, Vocab};

use crate::annotate::{annotate, annotate_gold, gold_target, AnnotateConfig, Annotation};
use crate::config::ModelConfig;
use crate::guide::ExecutionGuide;
use crate::mention::{DetectContext, MentionDetector};
use crate::seq2seq::{Seq2Seq, Seq2SeqItem};
use crate::train::Corpus;
use crate::transformer::TransformerSeq2Seq;
use crate::vocab::{add_examples, encode_source, input_vocab_symbols, OutVocab};

/// Which sequence model translates `q^a -> s^a`.
pub enum Translator {
    /// The paper's GRU seq2seq with attention and copy (§V-B).
    Gru(Seq2Seq),
    /// The Table II "seq2seq → Transformer" ablation.
    Transformer(TransformerSeq2Seq),
}

/// Pipeline options covering the Table II ablation axes.
#[derive(Debug, Clone)]
pub struct NlidbOptions {
    /// Model hyper-parameters.
    pub model: ModelConfig,
    /// Annotation encoding choices.
    pub annotate: AnnotateConfig,
    /// Copy mechanism on/off.
    pub copy: bool,
    /// Replace the GRU seq2seq with a transformer.
    pub use_transformer: bool,
}

impl ToJson for NlidbOptions {
    fn to_json(&self) -> Json {
        Json::obj([
            ("model", self.model.to_json()),
            ("annotate", self.annotate.to_json()),
            ("copy", self.copy.to_json()),
            ("use_transformer", self.use_transformer.to_json()),
        ])
    }
}

impl FromJson for NlidbOptions {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(NlidbOptions {
            model: j.req("model")?,
            annotate: j.req("annotate")?,
            copy: j.req("copy")?,
            use_transformer: j.req("use_transformer")?,
        })
    }
}

impl Default for NlidbOptions {
    fn default() -> Self {
        NlidbOptions {
            model: ModelConfig::default(),
            annotate: AnnotateConfig::default(),
            copy: true,
            use_transformer: false,
        }
    }
}

/// Reusable per-table inference state (see [`Nlidb::table_context`]).
///
/// Everything here is a pure function of the table and the trained
/// system, so one context can serve any number of questions against its
/// table with predictions byte-identical to the context-free path.
#[derive(Debug, Clone)]
pub struct TableContext {
    /// [`Table::fingerprint`] of the source table — the table half of the
    /// serving cache key.
    pub fingerprint: u64,
    /// The mention-detection half of the context.
    pub detect: DetectContext,
}

/// The trained end-to-end system.
pub struct Nlidb {
    /// The §IV mention-detection stack.
    pub detector: MentionDetector,
    translator: Translator,
    in_vocab: Vocab,
    out_vocab: OutVocab,
    opts: NlidbOptions,
}

impl Nlidb {
    /// Trains the full system on a dataset's training split.
    pub fn train(ds: &Dataset, opts: NlidbOptions) -> Nlidb {
        let space = EmbeddingSpace::with_builtin_lexicon(opts.model.word_dim.max(8), 77);
        Self::train_with_space(ds, opts, space, Lexicon::builtin())
    }

    /// Trains with an explicit embedding space and lexicon (used when the
    /// caller registers §II metadata phrases).
    pub fn train_with_space(
        ds: &Dataset,
        opts: NlidbOptions,
        space: EmbeddingSpace,
        lexicon: Lexicon,
    ) -> Nlidb {
        let Ok(nlidb) = Self::train_on(ds.train.as_slice(), opts, space, lexicon);
        nlidb
    }

    /// Out-of-core [`Nlidb::train`]: consumes the training split as an
    /// [`ExampleSource`] stream instead of a materialized slice. At most
    /// one shard of examples (plus its derived training items) is
    /// resident at any point — the source's
    /// [`ResidencyGauge`](nlidb_data::stream::ResidencyGauge) proves the
    /// bound. Training over the disk reader is byte-identical to
    /// training over the in-memory source for the same shards: the
    /// vocabulary pass visits shards in index order, every item-deriving
    /// RNG is a per-shard stream, and the epoch walk is the
    /// deterministic [`crate::train::sharded_epoch`] order.
    pub fn train_streamed<S: ExampleSource>(
        src: &mut S,
        opts: NlidbOptions,
    ) -> Result<Nlidb, StreamError> {
        let space = EmbeddingSpace::with_builtin_lexicon(opts.model.word_dim.max(8), 77);
        Self::train_on(src, opts, space, Lexicon::builtin())
    }

    /// The one training body behind [`Self::train_with_space`] and
    /// [`Self::train_streamed`]: the input vocabulary (the corpus's
    /// examples in order, so a shard-by-shard pass adds the same tokens
    /// as one over the materialized split), then the mention detector,
    /// then the translator on [`training_items`].
    fn train_on<C: Corpus>(
        mut corpus: C,
        opts: NlidbOptions,
        space: EmbeddingSpace,
        lexicon: Lexicon,
    ) -> Result<Nlidb, C::Error> {
        let cfg = &opts.model;
        let mut in_vocab = input_vocab_symbols(cfg);
        corpus.visit(&mut |ex| add_examples(&mut in_vocab, ex))?;
        let out_vocab = OutVocab::new(cfg);
        let detector = {
            let _t = nlidb_trace::span("pipeline.train.mention");
            MentionDetector::train_on(cfg, &mut corpus, in_vocab.clone(), &space, lexicon)?
        };
        let _t = nlidb_trace::span("pipeline.train.translator");
        let items =
            |ex: &[Example], rng: &mut Rng| training_items(ex, &opts, &in_vocab, &out_vocab, rng);
        let item_seed = cfg.seed ^ 0xD20F;
        let translator = if opts.use_transformer {
            let mut m = TransformerSeq2Seq::new(cfg, &in_vocab, out_vocab.clone(), &space);
            corpus.train(&mut m, cfg.epochs, item_seed, &items)?;
            Translator::Transformer(m)
        } else {
            let mut m = Seq2Seq::new(cfg, &in_vocab, out_vocab.clone(), &space, opts.copy);
            corpus.train(&mut m, cfg.epochs, item_seed, &items)?;
            Translator::Gru(m)
        };
        Ok(Nlidb { detector, translator, in_vocab, out_vocab, opts })
    }

    /// The input vocabulary.
    pub fn in_vocab(&self) -> &Vocab {
        &self.in_vocab
    }

    /// The output vocabulary.
    pub fn out_vocab(&self) -> &OutVocab {
        &self.out_vocab
    }

    /// The pipeline options.
    pub fn options(&self) -> &NlidbOptions {
        &self.opts
    }

    /// The active translator (GRU seq2seq or transformer).
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// Reassembles a system from restored parts (used by checkpointing).
    pub fn from_parts(
        detector: MentionDetector,
        translator: Translator,
        in_vocab: Vocab,
        out_vocab: OutVocab,
        opts: NlidbOptions,
    ) -> Nlidb {
        Nlidb { detector, translator, in_vocab, out_vocab, opts }
    }

    /// Builds the reusable per-table inference context: everything the
    /// `q -> s` path derives from the table alone (column names and
    /// tokens, §II statistics, the content-match value index, and the
    /// table's content fingerprint). Prediction through a context is
    /// byte-identical to the direct path — the context fields are pure
    /// functions of the table — so the batched serving engine
    /// ([`crate::serve`]) builds one context per distinct table and
    /// amortizes it across every question in the batch.
    pub fn table_context(&self, table: &Table) -> TableContext {
        self.context_with_fingerprint(table, table.fingerprint())
    }

    /// [`Self::table_context`] for a caller that already holds the
    /// table's [`Table::fingerprint`], so the cells are not hashed again.
    pub(crate) fn context_with_fingerprint(&self, table: &Table, fingerprint: u64) -> TableContext {
        let _t = nlidb_trace::span("pipeline.table_context");
        TableContext { fingerprint, detect: self.detector.table_context(table) }
    }

    /// Runs annotation (step 1) on a question/table pair.
    pub fn annotate_question(&self, question: &[String], table: &Table) -> Annotation {
        self.annotate_question_in(question, &self.table_context(table))
    }

    fn annotate_question_in(&self, question: &[String], ctx: &TableContext) -> Annotation {
        let _t = nlidb_trace::span("pipeline.annotate");
        let slots = {
            let _t = nlidb_trace::span("pipeline.mention_detect");
            self.detector.detect_in(question, &ctx.detect)
        };
        annotate(
            question,
            &slots,
            &ctx.detect.names,
            &self.opts.annotate,
            self.opts.model.max_headers,
        )
    }

    /// Step 2: the translator's candidates for an annotated question, best
    /// first — the whole beam for the GRU seq2seq, the single greedy
    /// decode for the transformer, nothing for an empty source.
    fn decode_ranked(&self, tokens: &[String]) -> Vec<Vec<usize>> {
        let _t = nlidb_trace::span("pipeline.decode");
        let (src, copy) = encode_source(&self.in_vocab, &self.out_vocab, tokens);
        if src.is_empty() {
            return Vec::new();
        }
        match &self.translator {
            Translator::Gru(m) => m.decode_beam_ranked(&src, &copy, self.opts.model.beam_width),
            Translator::Transformer(m) => vec![m.decode_greedy(&src, &copy)],
        }
    }

    /// The top candidate's annotated SQL `s^a` (empty when there is none).
    fn top_sql(&self, ranked: &[Vec<usize>]) -> AnnotatedSql {
        self.out_vocab.decode(ranked.first().map(Vec::as_slice).unwrap_or(&[]))
    }

    /// The one inference body behind every `predict*` entry point: annotate
    /// `q -> q^a` through `ctx`, decode the ranked candidates once, then
    /// commit. Unguided, the top candidate is recovered into `s`, falling
    /// back to [`fallback_query`]. Given a table, the repair walk of
    /// [`Self::predict_guided`] runs first, executing only the candidates
    /// it reaches, and the unguided answer is its last resort.
    pub(crate) fn answer(
        &self,
        question: &[String],
        ctx: &TableContext,
        guide: Option<&Table>,
    ) -> Option<Query> {
        let _guided = guide.map(|_| nlidb_trace::span("decode.guide.predict"));
        let ann = self.annotate_question_in(question, ctx);
        let ranked = self.decode_ranked(&ann.tokens);
        if let Some(table) = guide {
            let mut judge = ExecutionGuide::new(&self.out_vocab, &ann.map, table);
            if let Some(q) = judge.repair(&ranked, fallback_query(&ann.map)) {
                return Some(q);
            }
            nlidb_trace::count("decode.guide.repair.last_resort", 1);
        }
        let _t = nlidb_trace::span("pipeline.recover");
        recover(&self.top_sql(&ranked), &ann.map).ok().or_else(|| fallback_query(&ann.map))
    }

    /// Full prediction `q -> s` with the detected annotation.
    ///
    /// If the decoded `s^a` is malformed (references a slot the detector
    /// did not produce), falls back to a rule-built query from the
    /// detected slots themselves — an engineering safeguard on top of the
    /// paper's pipeline so the interface always answers when mentions were
    /// found.
    pub fn predict(&self, question: &[String], table: &Table) -> Option<Query> {
        self.answer(question, &self.table_context(table), None)
    }

    /// [`Self::predict`] against a prebuilt [`TableContext`] — the batched
    /// path; byte-identical to `predict` for a context built from the
    /// same table.
    pub fn predict_in(&self, question: &[String], ctx: &TableContext) -> Option<Query> {
        self.answer(question, ctx, None)
    }

    /// Execution-guided prediction `q -> s` (ROADMAP item 3): decodes the
    /// full beam, then walks it in the model's own rank order, judging
    /// each candidate it reaches by recovering and executing it against
    /// `table` (see [`ExecutionGuide`]), and commits the first that
    /// survives. The repair walk is deterministic.
    ///
    /// The governing invariant: **guidance never second-guesses an
    /// answer that already executes — it only repairs failing ones.**
    /// Demoting an executing answer (e.g. a provably-empty one) in
    /// favor of a lower-ranked candidate destroys correct predictions
    /// on corpora where the gold answer is legitimately empty, so the
    /// repair walk engages only when the unguided answer is broken. In
    /// terms of each candidate's [`GuideVerdict`](crate::GuideVerdict):
    ///
    /// 1. the top-ranked candidate, whenever it executes at all (`Pass`
    ///    or `Vacuous`) — this is byte-identical to the unguided answer;
    /// 2. if the decode is `Unrecoverable`, the slot-built
    ///    `fallback_query` when it executes — also exactly the unguided
    ///    answer, since `predict` falls back the same way;
    /// 3. else the highest-ranked remaining candidate whose execution
    ///    returns a non-vacuous result (`Pass`);
    /// 4. else the highest-ranked remaining candidate that executes at
    ///    all (`Vacuous`);
    /// 5. else the slot-built `fallback_query`, if it executes without
    ///    [`ExecError`](nlidb_storage::ExecError);
    /// 6. else exactly the unguided [`Self::predict`] answer — the
    ///    documented last resort, and the only step that may still fail
    ///    execution.
    ///
    /// Steps 1–2 cover every input whose unguided answer executes, so
    /// guided `Acc_ex` can only differ from the plain beam on inputs the
    /// plain beam already got wrong (an executing wrong answer is left
    /// alone; a failing one is replaced by something that runs). An
    /// executing top candidate costs one execution; no question costs
    /// more than one per beam candidate, plus the fallback's.
    pub fn predict_guided(&self, question: &[String], table: &Table) -> Option<Query> {
        self.answer(question, &self.table_context(table), Some(table))
    }

    /// [`Self::predict_guided`] against a prebuilt [`TableContext`] — the
    /// batched path. The context carries no row data, so the guided path
    /// also needs the table itself; `ctx` must have been built from
    /// `table`.
    pub fn predict_guided_in(
        &self,
        question: &[String],
        ctx: &TableContext,
        table: &Table,
    ) -> Option<Query> {
        self.answer(question, ctx, Some(table))
    }

    /// Steps 1–2 only: the predicted annotated SQL (the top candidate)
    /// and the annotation map it refers to.
    pub fn predict_annotated_in(
        &self,
        question: &[String],
        ctx: &TableContext,
    ) -> (AnnotatedSql, AnnotationMap) {
        let ann = self.annotate_question_in(question, ctx);
        (self.top_sql(&self.decode_ranked(&ann.tokens)), ann.map)
    }

    /// Prediction that bypasses mention detection by using the example's
    /// gold annotation — isolates the seq2seq model's quality (used by the
    /// recovery experiment, Table III).
    pub fn predict_with_gold_annotation(
        &self,
        e: &Example,
    ) -> (AnnotatedSql, AnnotatedSql, AnnotationMap) {
        let ann = annotate_gold(e, &self.opts.annotate, self.opts.model.max_headers);
        let predicted = self.top_sql(&self.decode_ranked(&ann.tokens));
        let gold = gold_target(e, &ann.map);
        (predicted, gold, ann.map)
    }
}

/// Rule-based fallback when the decoded annotated SQL does not recover:
/// select the first column-only slot (or the first header), and emit an
/// equality condition for every slot that carries a value.
fn fallback_query(map: &AnnotationMap) -> Option<Query> {
    let select_col = map
        .slots
        .iter()
        .find(|s| s.value.is_none())
        .and_then(|s| s.column)
        .or_else(|| map.headers.first().copied())?;
    let mut q = Query::select(select_col);
    for slot in &map.slots {
        if let (Some(col), Some(value)) = (slot.column, slot.value.as_ref()) {
            q = q.and_where(col, nlidb_sqlir::CmpOp::Eq, nlidb_sqlir::Literal::parse(value));
        }
    }
    Some(q)
}

/// Builds seq2seq training items from gold annotations, skipping the rare
/// examples whose slot/header counts exceed the configured budget.
///
/// Applies *slot dropout*: with some probability the select slot is
/// removed (forcing the target to fall back to the table-header symbol
/// `g_k`, §V-A-2) or a condition slot's column span is hidden (forcing the
/// Figure 1(d) pattern where `c_i` appears in the output but not in the
/// input). This matches the test-time distribution, where mention
/// detection occasionally misses a mention. Training draws from
/// `seed ^ 0xD20F`: one RNG for a materialized split, one per shard for a
/// stream (see `train::Corpus`).
pub fn training_items(
    examples: &[Example],
    opts: &NlidbOptions,
    in_vocab: &Vocab,
    out_vocab: &OutVocab,
    rng: &mut Rng,
) -> Vec<Seq2SeqItem> {
    let mut items = Vec::with_capacity(examples.len());
    for e in examples {
        if let Some(item) = training_item_for(e, opts, in_vocab, out_vocab, rng) {
            items.push(item);
        }
    }
    items
}

/// Builds the (slot-dropout-noised) training item for one example; `None`
/// when the example exceeds the slot/header budget or annotates to an
/// empty source.
fn training_item_for(
    e: &Example,
    opts: &NlidbOptions,
    in_vocab: &Vocab,
    out_vocab: &OutVocab,
    rng: &mut Rng,
) -> Option<Seq2SeqItem> {
    let mut slots = crate::annotate::gold_slots(e);
    if opts.annotate.header_encoding && rng.gen::<f32>() < 0.22 {
        // Drop the slot that has no value (the select mention), if any.
        if let Some(i) = slots.iter().position(|s| s.value.is_none()) {
            slots.remove(i);
        }
    }
    if rng.gen::<f32>() < 0.12 {
        // Hide one condition slot's column span (implicit mention).
        if let Some(s) = slots.iter_mut().find(|s| s.value.is_some() && s.col_span.is_some()) {
            s.col_span = None;
        }
    }
    let ann = crate::annotate::annotate(
        &e.question,
        &slots,
        &e.table.column_names(),
        &opts.annotate,
        opts.model.max_headers,
    );
    let target = gold_target(e, &ann.map);
    let tgt = out_vocab.try_encode(&target)?;
    let (src, copy) = encode_source(in_vocab, out_vocab, &ann.tokens);
    if src.is_empty() || tgt.is_empty() {
        return None;
    }
    Some(Seq2SeqItem { src, copy, tgt })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::build_input_vocab;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_sqlir::query_match;

    fn tiny_opts() -> NlidbOptions {
        NlidbOptions { model: ModelConfig::tiny(), ..NlidbOptions::default() }
    }

    #[test]
    fn training_items_are_well_formed() {
        let ds = generate(&WikiSqlConfig::tiny(71));
        let opts = tiny_opts();
        let in_vocab = build_input_vocab(&ds, &opts.model);
        let out_vocab = OutVocab::new(&opts.model);
        let mut rng = Rng::seed_from_u64(opts.model.seed ^ 0xD20F);
        let items = training_items(&ds.train, &opts, &in_vocab, &out_vocab, &mut rng);
        assert!(items.len() >= ds.train.len() * 9 / 10, "too many skipped");
        for item in &items {
            assert_eq!(item.src.len(), item.copy.len());
            assert!(*item.tgt.last().unwrap() == out_vocab.eos());
            // Every target references only representable ids.
            for &t in &item.tgt {
                assert!(t < out_vocab.len());
            }
            // The annotated source must contain copyable symbols.
            assert!(item.copy.iter().any(Option::is_some), "no symbols in source");
        }
    }

    #[test]
    fn end_to_end_train_and_predict_on_unseen_tables() {
        let mut gen_cfg = WikiSqlConfig::tiny(75);
        gen_cfg.train_tables = 8;
        gen_cfg.questions_per_table = 8;
        let ds = generate(&gen_cfg);
        let nlidb = Nlidb::train(&ds, tiny_opts());
        // Predict on dev (unseen tables); require a meaningful fraction of
        // canonical matches — the full paper-scale number needs the bench
        // harness's larger corpus and epochs.
        let mut qm = 0;
        let mut total = 0;
        for e in ds.dev.iter().take(16) {
            total += 1;
            if let Some(pred) = nlidb.predict(&e.question, &e.table) {
                if query_match(&pred, &e.query) {
                    qm += 1;
                }
            }
        }
        assert!(total == 16);
        // Smoke-level bar: tiny corpus (8 tables over 20 domains), tiny
        // model, 2 epochs — accuracy here is seed-fragile; the bench
        // harness exercises the trained regime (~44-55% qm).
        assert!(qm >= 2, "end-to-end query match too low: {qm}/{total}");
    }

    #[test]
    fn gold_annotation_prediction_is_at_least_as_good() {
        let mut gen_cfg = WikiSqlConfig::tiny(73);
        gen_cfg.train_tables = 8;
        gen_cfg.questions_per_table = 8;
        let ds = generate(&gen_cfg);
        let nlidb = Nlidb::train(&ds, tiny_opts());
        let mut with_gold = 0;
        let mut end_to_end = 0;
        for e in ds.dev.iter().take(12) {
            let (pred_sa, _, map) = nlidb.predict_with_gold_annotation(e);
            if let Ok(q) = recover(&pred_sa, &map) {
                if query_match(&q, &e.query) {
                    with_gold += 1;
                }
            }
            if let Some(q) = nlidb.predict(&e.question, &e.table) {
                if query_match(&q, &e.query) {
                    end_to_end += 1;
                }
            }
        }
        assert!(
            with_gold >= end_to_end,
            "gold annotation should not hurt: {with_gold} vs {end_to_end}"
        );
    }

    #[test]
    fn fallback_query_builds_from_slots() {
        use nlidb_sqlir::{AnnotationMap, Slot};
        let map = AnnotationMap {
            slots: vec![
                Slot { column: Some(2), value: None },
                Slot { column: Some(0), value: Some("mayo".into()) },
            ],
            headers: vec![0, 1, 2],
        };
        let q = super::fallback_query(&map).expect("fallback");
        assert_eq!(q.select_col, 2);
        assert_eq!(q.conds.len(), 1);
        assert_eq!(q.conds[0].col, 0);
    }

    #[test]
    fn fallback_query_uses_header_when_no_select_slot() {
        use nlidb_sqlir::{AnnotationMap, Slot};
        let map = AnnotationMap {
            slots: vec![Slot { column: Some(1), value: Some("x".into()) }],
            headers: vec![0, 1],
        };
        let q = super::fallback_query(&map).expect("fallback");
        assert_eq!(q.select_col, 0, "falls back to the first header");
        assert_eq!(q.conds.len(), 1);
    }

    #[test]
    fn fallback_query_none_when_nothing_detected() {
        use nlidb_sqlir::AnnotationMap;
        let map = AnnotationMap { slots: vec![], headers: vec![] };
        assert!(super::fallback_query(&map).is_none());
    }

    #[test]
    fn empty_question_predicts_none_gracefully() {
        let ds = generate(&WikiSqlConfig::tiny(74));
        let nlidb = Nlidb::train(&ds, tiny_opts());
        let table = &ds.dev[0].table;
        let pred = nlidb.predict(&[], table);
        // No panic; None or some degenerate query are both acceptable.
        let _ = pred;
    }
}
