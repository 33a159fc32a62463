//! Mention detection and resolution (§IV): the first step of the
//! framework, converting a question `q` into mention slots that the
//! annotation step turns into `q^a`.
//!
//! - [`matcher`] — context-free matching (exact / edit / semantic /
//!   metadata phrases).
//! - [`classifier`] — the §IV-B Column Mention Binary Classifier.
//! - [`adversarial`] — the §IV-C FGM-based mention localization.
//! - [`value`] — the §IV-D Value Detection Classifier.
//! - [`resolve`](mod@resolve) — the §IV-E dependency-tree mention resolution.
//! - [`MentionDetector`] — the combined detector used by the pipeline.

pub mod adversarial;
pub mod classifier;
pub mod matcher;
pub mod resolve;
pub mod value;

use nlidb_data::Example;
use nlidb_storage::{Table, TableStats};
use nlidb_tensor::{Graph, Rng};
use nlidb_text::{EmbeddingSpace, Lexicon, Vocab};

use crate::config::ModelConfig;
use crate::train::Corpus;
use adversarial::{influence_on, mention_span};
use classifier::{training_pairs, MentionClassifier};
use matcher::{context_free_matches, ColumnCandidate, MatchSource, MatcherConfig};
use resolve::resolve;
use value::{content_matches_indexed, ValueDetector, ValueIndex};

/// One detected mention slot, in question-appearance order.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedSlot {
    /// Schema column this slot refers to (always known at detection time;
    /// implicit slots get the value detector's statistical column).
    pub column: usize,
    /// Column-mention span, if explicit.
    pub col_span: Option<(usize, usize)>,
    /// Value text (joined question tokens), if the slot pairs a value.
    pub value: Option<String>,
    /// Value span, if present.
    pub val_span: Option<(usize, usize)>,
}

impl DetectedSlot {
    /// First question position this slot touches (for ordering).
    pub fn position(&self) -> usize {
        match (self.col_span, self.val_span) {
            (Some((a, _)), Some((b, _))) => a.min(b),
            (Some((a, _)), None) => a,
            (None, Some((b, _))) => b,
            (None, None) => usize::MAX,
        }
    }
}

/// Per-table detection state that is independent of the question: column
/// names and their tokenizations, the §II statistics (`s_c` centroids),
/// and the content-match [`ValueIndex`]. Detection over `k` questions
/// against one table builds this once instead of `k` times — the
/// amortization the batched serving engine (`nlidb_core::serve`) relies
/// on. All fields are pure functions of the table and the detector's
/// embedding space, so detection through a context is byte-identical to
/// the direct [`MentionDetector::detect`] path.
#[derive(Debug, Clone)]
pub struct DetectContext {
    /// Column names, schema order.
    pub names: Vec<String>,
    /// `tokenize(name)` per column, schema order.
    pub name_tokens: Vec<Vec<String>>,
    /// §II database statistics for the value detector.
    pub stats: TableStats,
    /// Content index for context-free value matching.
    pub value_index: ValueIndex,
}

/// The full §IV mention-detection stack.
pub struct MentionDetector {
    /// The §IV-B classifier (with §IV-C localization on top).
    pub classifier: MentionClassifier,
    /// The §IV-D value detector.
    pub value_detector: ValueDetector,
    /// Context-free matcher thresholds.
    pub matcher_cfg: MatcherConfig,
    space: EmbeddingSpace,
    lexicon: Lexicon,
    cfg: ModelConfig,
}

impl MentionDetector {
    /// Builds and trains the detector on a training split.
    pub fn train(
        cfg: &ModelConfig,
        train: &[Example],
        vocab: Vocab,
        space: &EmbeddingSpace,
        lexicon: Lexicon,
    ) -> Self {
        let Ok(detector) = Self::train_on(cfg, &mut &*train, vocab, space, lexicon);
        detector
    }

    /// [`Self::train`] on any [`Corpus`]: classifier pairs come from
    /// [`training_pairs`], value-detector triples from
    /// [`value::training_triples`] with the corpus's item RNG
    /// (one for a materialized split, one per shard for an
    /// [`ExampleSource`](nlidb_data::stream::ExampleSource), so at most
    /// one shard of examples plus its derived items is resident).
    /// Training from the disk reader is byte-identical to training from
    /// the in-memory source over the same shards.
    pub(crate) fn train_on<C: Corpus>(
        cfg: &ModelConfig,
        corpus: &mut C,
        vocab: Vocab,
        space: &EmbeddingSpace,
        lexicon: Lexicon,
    ) -> Result<Self, C::Error> {
        let mut d = Self::untrained(cfg, vocab, space, lexicon);
        // Classifier pairs draw nothing from the item RNG, so its seed is moot.
        corpus.train(&mut d.classifier, cfg.mention_epochs, 0, &|ex, _| training_pairs(ex))?;
        let triples = |ex: &[Example], rng: &mut Rng| value::training_triples(ex, space, rng);
        corpus.train(
            &mut d.value_detector,
            cfg.mention_epochs.max(4),
            cfg.seed ^ 0x7121,
            &triples,
        )?;
        Ok(d)
    }

    /// Builds an untrained detector (for tests and warm starts).
    pub fn untrained(
        cfg: &ModelConfig,
        vocab: Vocab,
        space: &EmbeddingSpace,
        lexicon: Lexicon,
    ) -> Self {
        MentionDetector {
            classifier: MentionClassifier::new(cfg, vocab, space),
            value_detector: ValueDetector::new(cfg, space.clone()),
            matcher_cfg: MatcherConfig::default(),
            space: space.clone(),
            lexicon,
            cfg: cfg.clone(),
        }
    }

    /// The embedding space in use.
    pub fn space(&self) -> &EmbeddingSpace {
        &self.space
    }

    /// The metadata lexicon in use.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }

    /// Builds the reusable per-table detection context (see
    /// [`DetectContext`]). Pure in the table and the embedding space.
    pub fn table_context(&self, table: &Table) -> DetectContext {
        let names = table.column_names();
        let name_tokens = names.iter().map(|n| nlidb_text::tokenize(n)).collect();
        DetectContext {
            names,
            name_tokens,
            stats: TableStats::compute(table, &self.space),
            value_index: ValueIndex::build(table),
        }
    }

    /// Detects column-mention candidates: context-free tier first, then
    /// the neural classifier + adversarial localization for columns the
    /// context-free tier missed (§IV-A's two-stage strategy).
    ///
    /// The neural tier runs on one frozen tape per question: the question
    /// side is encoded at the first uncovered column, each such column is
    /// scored on the tape, and a column whose probability clears the
    /// threshold is localized by a backward from its loss on the same
    /// tape. Every probability and span equals what
    /// [`MentionClassifier::predict`] and [`adversarial::locate_mention`]
    /// give for the pair.
    fn detect_columns_in(
        &self,
        question: &[String],
        ctx: &DetectContext,
    ) -> Vec<ColumnCandidate> {
        if question.is_empty() {
            return Vec::new();
        }
        let mut found = context_free_matches(
            question,
            &ctx.names,
            &self.space,
            &self.lexicon,
            &self.matcher_cfg,
        );
        let covered: Vec<usize> = found.iter().map(|c| c.column).collect();
        let clf = &self.classifier;
        let mut g = Graph::frozen();
        let mut encoded = None;
        for (ci, col_tokens) in ctx.name_tokens.iter().enumerate() {
            // A name with no tokens cannot be mentioned, and the
            // classifier needs at least one column word.
            if covered.contains(&ci) || col_tokens.is_empty() {
                continue;
            }
            let q = *encoded.get_or_insert_with(|| clf.encode_question(&mut g, question));
            let out = clf.score_column(&mut g, &q, col_tokens);
            let prob = g.sigmoid(out.logit);
            let p = g.value(prob).scalar();
            if p > 0.58 {
                let inf = influence_on(&mut g, &out, clf.config());
                if let Some(span) = mention_span(&inf, question, &self.cfg) {
                    // A context-free candidate already claiming the span is
                    // more precise than the gradient signal; skip overlaps.
                    let overlaps = found
                        .iter()
                        .any(|c| span.0 < c.span.1 && c.span.0 < span.1);
                    if !overlaps {
                        found.push(ColumnCandidate {
                            column: ci,
                            span,
                            score: p,
                            source: MatchSource::Semantic,
                        });
                    }
                }
            }
        }
        found.sort_by_key(|c| c.span.0);
        found
    }

    /// Runs the full detection + resolution, returning slots in
    /// appearance order (capped at the configured slot budget).
    pub fn detect(&self, question: &[String], table: &Table) -> Vec<DetectedSlot> {
        self.detect_in(question, &self.table_context(table))
    }

    /// [`Self::detect`] against a prebuilt [`DetectContext`] — the batched
    /// path; byte-identical to `detect` for a context built from the same
    /// table.
    pub fn detect_in(&self, question: &[String], ctx: &DetectContext) -> Vec<DetectedSlot> {
        let col_mentions = self.detect_columns_in(question, ctx);
        // Content-matched values first (context-free tier), then the
        // statistical classifier for spans content matching missed —
        // counterfactual values (§III challenge 4) arrive through the
        // second path.
        let mut val_mentions = content_matches_indexed(question, &ctx.value_index);
        for vm in self.value_detector.detect(question, &ctx.stats) {
            let overlaps = val_mentions
                .iter()
                .any(|k| vm.span.0 < k.span.1 && k.span.0 < vm.span.1);
            if !overlaps {
                val_mentions.push(vm);
            }
        }
        val_mentions.sort_by_key(|v| v.span.0);
        let pairs = resolve(question, &col_mentions, &val_mentions);

        let mut slots: Vec<DetectedSlot> = pairs
            .iter()
            .map(|p| {
                let text = val_mentions
                    .iter()
                    .find(|v| v.span == p.val_span)
                    .and_then(|v| v.text.clone())
                    .unwrap_or_else(|| {
                        question.get(p.val_span.0..p.val_span.1).unwrap_or_default().join(" ")
                    });
                DetectedSlot {
                    column: p.column,
                    col_span: p.col_span,
                    value: Some(text),
                    val_span: Some(p.val_span),
                }
            })
            .collect();
        // Column mentions not consumed by a value pairing become
        // column-only slots (e.g. the select column).
        for cand in &col_mentions {
            let consumed = slots
                .iter()
                .any(|s| s.col_span == Some(cand.span) || s.column == cand.column);
            if !consumed {
                slots.push(DetectedSlot {
                    column: cand.column,
                    col_span: Some(cand.span),
                    value: None,
                    val_span: None,
                });
            }
        }
        slots.sort_by_key(DetectedSlot::position);
        slots.truncate(self.cfg.max_slots);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::build_input_vocab;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};

    fn trained() -> (MentionDetector, nlidb_data::Dataset) {
        let cfg = ModelConfig::tiny();
        let mut gen_cfg = WikiSqlConfig::tiny(51);
        gen_cfg.questions_per_table = 8;
        let ds = generate(&gen_cfg);
        let vocab = build_input_vocab(&ds, &cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 5);
        let det = MentionDetector::train(&cfg, &ds.train, vocab, &space, Lexicon::builtin());
        (det, ds)
    }

    #[test]
    fn detect_produces_ordered_bounded_slots() {
        let (det, ds) = trained();
        for e in ds.dev.iter().take(10) {
            let slots = det.detect(&e.question, &e.table);
            assert!(slots.len() <= det.cfg.max_slots);
            for w in slots.windows(2) {
                assert!(w[0].position() <= w[1].position(), "slots out of order");
            }
            for s in &slots {
                assert!(s.column < e.table.num_cols());
                if let Some((a, b)) = s.val_span {
                    assert!(a < b && b <= e.question.len());
                    assert_eq!(
                        s.value.as_deref().unwrap(),
                        e.question[a..b].join(" ")
                    );
                }
            }
        }
    }

    #[test]
    fn detection_finds_a_majority_of_gold_columns() {
        let (det, ds) = trained();
        let mut hit = 0;
        let mut total = 0;
        for e in ds.dev.iter().take(20) {
            let slots = det.detect(&e.question, &e.table);
            let detected: Vec<usize> = slots.iter().map(|s| s.column).collect();
            for gold in &e.slots {
                total += 1;
                if detected.contains(&gold.column) {
                    hit += 1;
                }
            }
        }
        assert!(total > 20);
        assert!(
            hit as f32 / total as f32 > 0.45,
            "column coverage too low: {hit}/{total}"
        );
    }

    #[test]
    fn shared_tape_detection_equals_the_per_pair_functions() {
        // `detect_columns_in` scores and localizes every column on one
        // frozen tape per question; its semantic candidates must be what
        // the per-pair `predict` and `locate_mention` give under the same
        // threshold and overlap rule.
        let (det, ds) = trained();
        let mut semantic = 0;
        for e in ds.dev.iter().chain(&ds.test) {
            let ctx = det.table_context(&e.table);
            let q = &e.question;
            let mut expected = context_free_matches(
                q,
                &ctx.names,
                &det.space,
                &det.lexicon,
                &det.matcher_cfg,
            );
            let covered: Vec<usize> = expected.iter().map(|c| c.column).collect();
            for (ci, col) in ctx.name_tokens.iter().enumerate() {
                if covered.contains(&ci) || col.is_empty() || q.is_empty() {
                    continue;
                }
                let p = det.classifier.predict(q, col);
                if p <= 0.58 {
                    continue;
                }
                let Some(span) = adversarial::locate_mention(&det.classifier, q, col, &det.cfg)
                else {
                    continue;
                };
                if !expected.iter().any(|c| span.0 < c.span.1 && c.span.0 < span.1) {
                    expected.push(ColumnCandidate {
                        column: ci,
                        span,
                        score: p,
                        source: MatchSource::Semantic,
                    });
                }
            }
            let keep = |cands: Vec<ColumnCandidate>| -> Vec<(usize, (usize, usize), u32)> {
                let mut semantic: Vec<_> = cands
                    .into_iter()
                    .filter(|c| c.source == MatchSource::Semantic)
                    .map(|c| (c.column, c.span, c.score.to_bits()))
                    .collect();
                semantic.sort();
                semantic
            };
            let (got, want) = (keep(det.detect_columns_in(q, &ctx)), keep(expected));
            assert_eq!(got, want, "question {q:?}");
            semantic += got.len();
        }
        assert!(semantic > 0, "no semantic candidate exercised the shared tape");
    }

    #[test]
    fn blank_column_names_are_skipped_not_classified() {
        // A column whose name tokenizes to nothing cannot be mentioned:
        // detection and both prediction paths must answer on its table
        // instead of handing the classifier an empty column.
        let ds = generate(&WikiSqlConfig::tiny(52));
        let opts = crate::NlidbOptions { model: ModelConfig::tiny(), ..Default::default() };
        let nlidb = crate::Nlidb::train(&ds, opts);
        let e = &ds.dev[0];
        let mut columns = e.table.schema().columns().to_vec();
        columns[0].name = String::new();
        columns[1].name = "   ".into();
        let mut table = Table::new("blank", nlidb_storage::Schema::new(columns));
        for row in e.table.iter_rows() {
            table.push_row(row.into_iter().cloned().collect());
        }
        for s in nlidb.detector.detect(&e.question, &table) {
            assert!(s.column < table.num_cols());
        }
        let _ = nlidb.predict(&e.question, &table);
        let _ = nlidb.predict_guided(&e.question, &table);
    }

    #[test]
    fn untrained_detector_still_runs() {
        let cfg = ModelConfig::tiny();
        let ds = generate(&WikiSqlConfig::tiny(52));
        let vocab = build_input_vocab(&ds, &cfg);
        let space = EmbeddingSpace::with_builtin_lexicon(cfg.word_dim, 5);
        let det = MentionDetector::untrained(&cfg, vocab, &space, Lexicon::builtin());
        let e = &ds.dev[0];
        let slots = det.detect(&e.question, &e.table);
        // Context-free tier alone should already produce something for
        // most questions; we just require no panic and validity.
        for s in &slots {
            assert!(s.column < e.table.num_cols());
        }
    }
}
