//! The Value Detection Classifier (§IV-D).
//!
//! Decides whether a question span `q[i, j]` is likely a mention of a
//! value of column `c`, using only the column's O(1) *statistics* `s_c`
//! (the embedding centroid from `nlidb-storage`), never the concrete
//! values — which is what makes counterfactual values detectable. The
//! classifier is the paper's two-layer MLP over
//! `[s_c − s_{q[i,j]} ; s_c ⊙ s_{q[i,j]}]` with a sigmoid output, and
//! candidate spans are restricted to short spans without stop words.
//! [`ValueDetector::detect`] scores every (span, column) pair of a
//! question on one frozen tape, computing each span's `s_{q[i,j]}` once.

use nlidb_neural::{Activation, Mlp};
use nlidb_storage::TableStats;
use nlidb_tensor::{Graph, NodeId, ParamStore, Tensor};
use nlidb_text::{span_has_stop_word, EmbeddingSpace};
use nlidb_tensor::Rng;

use crate::config::ModelConfig;
use crate::train::{train_series, Fit, FitSpec};

/// Maximum value-span length in tokens.
pub const MAX_VALUE_SPAN: usize = 4;

/// A detected value mention.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueMention {
    /// Question token span `[a, b)`.
    pub span: (usize, usize),
    /// Best-matching column index.
    pub column: usize,
    /// Likelihood from the classifier.
    pub score: f32,
    /// Per-column scores (schema order) for resolution.
    pub column_scores: Vec<f32>,
    /// Canonical value text override (content matches report the cell's
    /// own text, e.g. `"86%"` for the tokenized span `86 %`).
    pub text: Option<String>,
}

/// The trained value detector.
pub struct ValueDetector {
    /// Parameter store (exposed for checkpointing).
    pub store: ParamStore,
    mlp: Mlp,
    space: EmbeddingSpace,
    dim: usize,
    cfg: ModelConfig,
}

impl ValueDetector {
    /// Builds an untrained detector over the given embedding space.
    pub fn new(cfg: &ModelConfig, space: EmbeddingSpace) -> Self {
        let dim = space.dim();
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0x0DE7EC7);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "vd", &[2 * dim, 32, 1], Activation::Relu, &mut rng);
        ValueDetector { store, mlp, space, dim, cfg: cfg.clone() }
    }

    fn features(&self, s_c: &[f32], s_span: &[f32]) -> Tensor {
        let mut f = Vec::with_capacity(2 * self.dim);
        for (a, b) in s_c.iter().zip(s_span) {
            f.push(a - b);
        }
        for (a, b) in s_c.iter().zip(s_span) {
            f.push(a * b);
        }
        Tensor::row_vector(&f)
    }

    /// Likelihood that `span_tokens` is a value of the column with
    /// centroid `s_c`.
    pub fn score(&self, span_tokens: &[String], s_c: &[f32]) -> f32 {
        self.prob(&mut Graph::frozen(), &self.space.phrase_vector(span_tokens), s_c)
    }

    /// [`Self::score`] on `g` for a span whose phrase vector is `s_span`.
    fn prob(&self, g: &mut Graph, s_span: &[f32], s_c: &[f32]) -> f32 {
        let logit = self.logit(g, s_span, s_c);
        let p = g.sigmoid(logit);
        g.value(p).scalar()
    }

    fn logit(&self, g: &mut Graph, s_span: &[f32], s_c: &[f32]) -> NodeId {
        let x = g.leaf(self.features(s_c, s_span));
        self.mlp.forward(g, &self.store, x)
    }

    /// Trains on `(span tokens, column centroid, is-value?)` triples
    /// through the crate's one training loop (`train::fit`), one step per
    /// triple. Returns the final-epoch mean loss.
    pub fn train(&mut self, data: &[(Vec<String>, Vec<f32>, bool)], epochs: usize) -> f32 {
        crate::train::fit_slice(self, data, epochs)
    }

    /// Detects value mentions in a question against a table's statistics:
    /// scores every stop-word-free candidate span against every column,
    /// keeps spans whose best score crosses 0.5, and greedily selects
    /// non-overlapping spans by score (longer spans win ties).
    pub fn detect(&self, question: &[String], stats: &TableStats) -> Vec<ValueMention> {
        let n = question.len();
        let mut g = Graph::frozen();
        let mut candidates: Vec<ValueMention> = Vec::new();
        for a in 0..n {
            for b in a + 1..=(a + MAX_VALUE_SPAN).min(n) {
                let Some(span) = question.get(a..b) else { continue };
                if span_has_stop_word(span) {
                    continue;
                }
                let s_span = self.space.phrase_vector(span);
                let column_scores: Vec<f32> = stats
                    .columns
                    .iter()
                    .map(|cs| self.prob(&mut g, &s_span, &cs.centroid))
                    .collect();
                // `total_cmp` keeps the comparison panic-free; a table
                // with zero columns simply yields no candidates.
                let Some((column, &score)) = column_scores
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.total_cmp(y.1))
                else {
                    continue;
                };
                if score > 0.62 {
                    candidates.push(ValueMention {
                        span: (a, b),
                        column,
                        score,
                        column_scores,
                        text: None,
                    });
                }
            }
        }
        // Greedy non-overlap selection: higher score first, longer first.
        candidates.sort_by(|x, y| {
            y.score
                .total_cmp(&x.score)
                .then((y.span.1 - y.span.0).cmp(&(x.span.1 - x.span.0)))
        });
        let mut chosen: Vec<ValueMention> = Vec::new();
        for c in candidates {
            if chosen.iter().all(|k| c.span.1 <= k.span.0 || k.span.1 <= c.span.0) {
                chosen.push(c);
            }
        }
        chosen.sort_by_key(|c| c.span.0);
        chosen
    }
}

impl Fit for ValueDetector {
    type Item = (Vec<String>, Vec<f32>, bool);

    fn fit_spec(&self) -> FitSpec {
        FitSpec::per_example(&self.cfg, 0xF00D, train_series!("value"))
    }

    fn fit_store(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn item_loss(&self, g: &mut Graph, (span, s_c, label): &Self::Item) -> Option<NodeId> {
        let logit = self.logit(g, &self.space.phrase_vector(span), s_c);
        let target = if *label { 1.0 } else { 0.0 };
        Some(g.bce_with_logits(logit, Tensor::row_vector(&[target])))
    }
}

/// A prebuilt index of a table's cell contents for
/// [`content_matches_indexed`].
///
/// A question span matches a cell when their canonical texts agree up to
/// internal spacing (`canon == text || squeeze(canon) == squeeze(text)`;
/// since equality implies squeezed equality, the condition reduces to
/// squeezed equality). The index therefore buckets every cell by the
/// *squeezed* canonical text, keeping — per bucket, per column — the
/// canonical text of the first matching cell in column order, which is
/// exactly what the linear scan reports. Building it is one pass over the
/// table, after which each span lookup is `O(log cells)` instead of a
/// full table scan — the per-table work the serving engine amortizes
/// across a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueIndex {
    /// squeezed canonical cell text -> (column -> first cell's canonical
    /// text in that column). `BTreeMap` keeps column iteration in
    /// ascending order, matching the scan's column loop.
    buckets: std::collections::BTreeMap<String, std::collections::BTreeMap<usize, String>>,
    ncols: usize,
}

fn squeeze(t: &str) -> String {
    t.replace(' ', "")
}

impl ValueIndex {
    /// Indexes every cell of a table.
    pub fn build(table: &nlidb_storage::Table) -> ValueIndex {
        let mut buckets: std::collections::BTreeMap<
            String,
            std::collections::BTreeMap<usize, String>,
        > = std::collections::BTreeMap::new();
        for c in 0..table.num_cols() {
            for v in table.column_values(c) {
                let canon = v.canonical_text();
                // First cell per (bucket, column) wins, as in the scan.
                buckets
                    .entry(squeeze(&canon))
                    .or_default()
                    .entry(c)
                    .or_insert(canon);
            }
        }
        ValueIndex { buckets, ncols: table.num_cols() }
    }

    /// Number of columns in the indexed table.
    pub fn num_cols(&self) -> usize {
        self.ncols
    }

    /// Columns whose cells match `span_text` (lowercased joined span),
    /// with the first matching column and its cell text — `None` when no
    /// cell matches anywhere.
    fn lookup(
        &self,
        span_text: &str,
    ) -> Option<(&std::collections::BTreeMap<usize, String>, usize, &str)> {
        let bucket = self.buckets.get(&squeeze(span_text))?;
        // Buckets are created non-empty in `build`; treat an empty one
        // as "no match" rather than panicking in the serving path.
        let (&first_col, first_text) = bucket.iter().next()?;
        Some((bucket, first_col, first_text))
    }
}

/// Context-free value matching against table *content*: spans whose
/// canonical text equals some cell of a column. High precision for the
/// (majority of) values that do occur in the table; the statistical
/// classifier above remains the path for counterfactual values. Unlike
/// classifier candidates, content spans may contain stop words ("tide by
/// the sea" is a legitimate title).
///
/// Looks spans up in a prebuilt [`ValueIndex`]; the output is
/// byte-identical to a per-span table scan (pinned by
/// `indexed_content_matches_equal_scan`).
pub fn content_matches_indexed(question: &[String], index: &ValueIndex) -> Vec<ValueMention> {
    let n = question.len();
    let ncols = index.ncols;
    let mut out: Vec<ValueMention> = Vec::new();
    let max_span = 6usize;
    for a in 0..n {
        for b in (a + 1..=(a + max_span).min(n)).rev() {
            let Some(words) = question.get(a..b) else { continue };
            let text = words.join(" ").to_lowercase();
            if let Some((cols, column, cell_text)) = index.lookup(&text) {
                let scores =
                    (0..ncols).map(|c| if cols.contains_key(&c) { 1.0 } else { 0.0 }).collect();
                out.push(ValueMention {
                    span: (a, b),
                    column,
                    score: 1.0,
                    column_scores: scores,
                    text: Some(cell_text.to_string()),
                });
            }
        }
    }
    // Prefer longer matches; drop spans contained in a longer chosen one.
    out.sort_by(|x, y| {
        (y.span.1 - y.span.0).cmp(&(x.span.1 - x.span.0)).then(x.span.0.cmp(&y.span.0))
    });
    let mut chosen: Vec<ValueMention> = Vec::new();
    for c in out {
        if chosen.iter().all(|k| c.span.1 <= k.span.0 || k.span.1 <= c.span.0) {
            chosen.push(c);
        }
    }
    chosen.sort_by_key(|c| c.span.0);
    chosen
}

/// The original per-span linear scan, kept verbatim as the test oracle
/// for `content_matches_indexed` (the production path).
#[cfg(test)]
fn scan_content_matches(question: &[String], table: &nlidb_storage::Table) -> Vec<ValueMention> {
    let n = question.len();
    let ncols = table.num_cols();
    let mut out: Vec<ValueMention> = Vec::new();
    let max_span = 6usize;
    for a in 0..n {
        for len in (1..=max_span.min(n - a)).rev() {
            let b = a + len;
            let text = question[a..b].join(" ").to_lowercase();
            let squeezed = squeeze(&text);
            let mut scores = vec![0.0f32; ncols];
            let mut cell_text: Option<String> = None;
            for (c, score) in scores.iter_mut().enumerate() {
                let matched = table.column_values(c).iter().find(|v| {
                    let canon = v.canonical_text();
                    canon == text || squeeze(&canon) == squeezed
                });
                if let Some(cell) = matched {
                    *score = 1.0;
                    cell_text.get_or_insert_with(|| cell.canonical_text());
                }
            }
            if let Some(cell_text) = cell_text {
                let column = scores.iter().position(|&s| s == 1.0).expect("some match");
                out.push(ValueMention {
                    span: (a, b),
                    column,
                    score: 1.0,
                    column_scores: scores,
                    text: Some(cell_text),
                });
            }
        }
    }
    out.sort_by(|x, y| {
        (y.span.1 - y.span.0).cmp(&(x.span.1 - x.span.0)).then(x.span.0.cmp(&y.span.0))
    });
    let mut chosen: Vec<ValueMention> = Vec::new();
    for c in out {
        if chosen.iter().all(|k| c.span.1 <= k.span.0 || k.span.1 <= c.span.0) {
            chosen.push(c);
        }
    }
    chosen.sort_by_key(|c| c.span.0);
    chosen
}

/// Builds value-detector training triples from a dataset: gold value spans
/// are positives for their column and negatives for a random other column;
/// random stop-word-free non-value spans are negatives. Training draws
/// from `seed ^ 0x7121`: one RNG for a materialized split, one per shard
/// for a stream, so each shard's negatives are reproducible in isolation
/// (see `train::Corpus`).
pub fn training_triples(
    ds: &[nlidb_data::Example],
    space: &EmbeddingSpace,
    rng: &mut Rng,
) -> Vec<(Vec<String>, Vec<f32>, bool)> {
    let mut out = Vec::new();
    for e in ds {
        let stats = TableStats::compute(&e.table, space);
        let mut val_spans: Vec<(usize, usize)> = Vec::new();
        for slot in &e.slots {
            let Some((a, b)) = slot.val_span else { continue };
            val_spans.push((a, b));
            let span = e.question[a..b].to_vec();
            out.push((span.clone(), stats.columns[slot.column].centroid.clone(), true));
            // Negative: same span against a different column.
            if stats.columns.len() > 1 {
                let mut other = rng.gen_range(0..stats.columns.len());
                if other == slot.column {
                    other = (other + 1) % stats.columns.len();
                }
                out.push((span, stats.columns[other].centroid.clone(), false));
            }
        }
        // Negatives: random non-value spans.
        let n = e.question.len();
        for _ in 0..5 {
            if n == 0 {
                break;
            }
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0usize..2)).min(n);
            let overlaps = val_spans.iter().any(|&(va, vb)| a < vb && va < b);
            let span = e.question[a..b].to_vec();
            if overlaps || span_has_stop_word(&span) || span.is_empty() {
                continue;
            }
            let col = rng.gen_range(0..stats.columns.len());
            out.push((span, stats.columns[col].centroid.clone(), false));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_text::tokenize;

    fn setup() -> (ValueDetector, nlidb_data::Dataset, EmbeddingSpace) {
        let cfg = ModelConfig::tiny();
        let space = EmbeddingSpace::with_builtin_lexicon(16, 9);
        let ds = generate(&WikiSqlConfig::tiny(41));
        let det = ValueDetector::new(&cfg, space.clone());
        (det, ds, space)
    }

    #[test]
    fn score_is_probability() {
        let (det, _, space) = setup();
        let s_c = space.phrase_vector(&tokenize("piotr adamczyk"));
        let p = det.score(&tokenize("jerzy antczak"), &s_c);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn training_triples_have_both_labels() {
        let (_, ds, space) = setup();
        let triples = training_triples(&ds.train, &space, &mut Rng::seed_from_u64(1 ^ 0x7121));
        assert!(triples.iter().any(|t| t.2));
        assert!(triples.iter().any(|t| !t.2));
        // Positives must never contain stop words (they come from gold
        // value spans, which are entity-like).
        for (span, _, label) in &triples {
            if *label {
                assert!(!span.is_empty());
            }
        }
    }

    #[test]
    fn training_converges_and_detects_gold_values() {
        let (mut det, ds, space) = setup();
        let triples = training_triples(&ds.train, &space, &mut Rng::seed_from_u64(2 ^ 0x7121));
        let loss = det.train(&triples, 6);
        assert!(loss < 0.55, "value detector failed to train: {loss}");

        // Detection: gold value spans should be recovered reasonably often.
        let mut hit = 0;
        let mut total = 0;
        for e in ds.dev.iter().take(25) {
            let stats = TableStats::compute(&e.table, &space);
            let found = det.detect(&e.question, &stats);
            for slot in &e.slots {
                let Some((ga, gb)) = slot.val_span else { continue };
                total += 1;
                if found.iter().any(|m| m.span.0 < gb && ga < m.span.1) {
                    hit += 1;
                }
            }
        }
        assert!(total > 5);
        assert!(
            hit as f32 / total as f32 > 0.5,
            "value detection too weak: {hit}/{total}"
        );
    }

    #[test]
    fn counterfactual_values_are_detected() {
        // Train, then present a value that does NOT occur in the table:
        // detection must still work because only statistics are used.
        let (mut det, ds, space) = setup();
        let triples = training_triples(&ds.train, &space, &mut Rng::seed_from_u64(3 ^ 0x7121));
        det.train(&triples, 6);
        // Build a question with a fresh person name against a table whose
        // entity column holds person names.
        let e = ds
            .train
            .iter()
            .find(|e| {
                e.slots.iter().any(|s| {
                    s.val_span.is_some()
                        && s.value.as_deref().map(|v| v.contains(' ')).unwrap_or(false)
                })
            })
            .expect("an example with a multi-word value");
        let stats = TableStats::compute(&e.table, &space);
        let q = tokenize("which one is by zanzibar quillfeather ?");
        let found = det.detect(&q, &stats);
        // "zanzibar quillfeather" is counterfactual; we only require that
        // the detector returns finite scores and no panic — and that any
        // detection excludes stop-word spans.
        for m in &found {
            assert!(!span_has_stop_word(&q[m.span.0..m.span.1]));
        }
    }

    #[test]
    fn detect_returns_non_overlapping_sorted_spans() {
        let (mut det, ds, space) = setup();
        let triples = training_triples(&ds.train, &space, &mut Rng::seed_from_u64(4 ^ 0x7121));
        det.train(&triples, 3);
        let e = &ds.dev[0];
        let stats = TableStats::compute(&e.table, &space);
        let found = det.detect(&e.question, &stats);
        for w in found.windows(2) {
            assert!(w[0].span.1 <= w[1].span.0, "overlap: {found:?}");
        }
    }

    #[test]
    fn empty_question_detects_nothing() {
        let (det, ds, space) = setup();
        let stats = TableStats::compute(&ds.train[0].table, &space);
        assert!(det.detect(&[], &stats).is_empty());
    }

    #[test]
    fn indexed_content_matches_equal_scan() {
        // The ValueIndex fast path must reproduce the linear scan exactly
        // — same spans, same columns, same score vectors, same cell-text
        // overrides — on every generated question, plus adversarial spans
        // (values of *other* tables, shuffled subspans).
        let ds = generate(&WikiSqlConfig::tiny(43));
        let mut rng = nlidb_tensor::Rng::seed_from_u64(0x1DE);
        let mut checked = 0;
        for e in ds.train.iter().chain(&ds.dev).take(60) {
            let index = ValueIndex::build(&e.table);
            assert_eq!(index.num_cols(), e.table.num_cols());
            let scan = super::scan_content_matches(&e.question, &e.table);
            let fast = content_matches_indexed(&e.question, &index);
            assert_eq!(scan, fast, "mismatch on {:?}", e.question);
            // Cross-table question: values rarely present in this table.
            let other = &ds.train[rng.gen_range(0..ds.train.len())];
            let scan = super::scan_content_matches(&other.question, &e.table);
            let fast = content_matches_indexed(&other.question, &index);
            assert_eq!(scan, fast);
            checked += 1;
        }
        assert!(checked >= 40);
    }

    #[test]
    fn index_reports_first_matching_column_and_cell_text() {
        use nlidb_storage::{Column, DataType, Schema, Value};
        let schema = Schema::new(vec![
            Column::new("A", DataType::Text),
            Column::new("B", DataType::Text),
        ]);
        let mut t = nlidb_storage::Table::new("t", schema);
        // "x y" appears in both columns with different surface forms; the
        // scan reports column 0 and column 0's first cell's canonical text.
        t.push_row(vec![Value::Text("X  Y".into()), Value::Text("xy".into())]);
        let q: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let found = content_matches_indexed(&q, &ValueIndex::build(&t));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].column, 0);
        assert_eq!(found[0].column_scores, vec![1.0, 1.0], "both columns match");
        assert_eq!(found[0].text.as_deref(), Some("x y"));
    }
}
