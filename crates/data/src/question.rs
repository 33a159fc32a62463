//! Question realization: renders a (table, SQL) pair into a natural
//! language question while recording gold mention spans.
//!
//! Each §III challenge is an explicit, rate-controlled noise channel:
//!
//! | Challenge | Channel |
//! |---|---|
//! | 1. non-exact matching | synonym surface forms + morphological noise |
//! | 2. paraphrases | long paraphrase phrases from the column archetype |
//! | 3. implicit mentions | the column mention is dropped entirely |
//! | 4. counterfactual values | handled by the corpus generator (values not in the table) |
//! | 5. resolution | several same-kind columns (e.g. Director/Actor) in one question |

use nlidb_sqlir::{Agg, CmpOp, Literal, Query};
use nlidb_tensor::Rng;

use crate::domains::ColumnArchetype;
use crate::example::{GoldSlot, SlotRole};
use nlidb_text::tokenize;

/// Rates for the question-noise channels.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// Probability of using a synonym instead of the schema column name.
    pub synonym_rate: f32,
    /// Probability of using a long paraphrase (when the archetype has one).
    pub paraphrase_rate: f32,
    /// Probability of dropping an `implicit_ok` column mention.
    pub implicit_rate: f32,
    /// Probability of inflecting a mention word (plural/suffix noise).
    pub morph_rate: f32,
    /// Probability of realizing the first condition *before* the select
    /// clause ("for mayo , what is the population ?") — exercises
    /// non-canonical clause order (ParaphraseBench's SYNTACTIC category).
    pub inverted_rate: f32,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            synonym_rate: 0.45,
            paraphrase_rate: 0.25,
            implicit_rate: 0.3,
            morph_rate: 0.12,
            inverted_rate: 0.15,
        }
    }
}

impl NoiseConfig {
    /// All channels off: questions mention columns by their schema names.
    pub fn clean() -> Self {
        NoiseConfig {
            synonym_rate: 0.0,
            paraphrase_rate: 0.0,
            implicit_rate: 0.0,
            morph_rate: 0.0,
            inverted_rate: 0.0,
        }
    }
}

/// A compiled question-template plan: the tokenization of every static
/// surface phrase the realizer can emit — connector words, operator
/// phrases, aggregate openers, and the domain archetypes' schema-name
/// variants, mentions, and paraphrases.
///
/// Compiling once and sharing the plan read-only across shard workers
/// removes the per-question re-tokenization of the same fixed phrases —
/// the dbgen-style "compile templates once" step of the sharded corpus
/// pipeline. A plan lookup miss (dynamic text: values, inflected words)
/// falls back to [`nlidb_text::tokenize()`], so realization through a plan
/// is byte-identical to realization without one.
#[derive(Debug, Clone, Default)]
pub struct TemplatePlan {
    tokens: std::collections::BTreeMap<String, Vec<String>>,
}

/// Static connector/operator/opener phrases used by the realizer.
const STATIC_PHRASES: &[&str] = &[
    "in", "by", "of", "from", "is", "being", "over", "above", "more than",
    "greater than", "under", "below", "less than", "fewer than", "at least",
    "no less than", "at most", "no more than", "not", "other than", "for",
    "with", "given", "in the case of", ",", "which", "what", "what is the",
    "tell me the", "how many", "what is the number of", "what is the highest",
    "what is the maximum", "which is the largest", "what is the lowest",
    "what is the minimum", "which is the smallest", "what is the total",
    "what is the combined", "what is the average", "what is the mean", "and",
    "and with", "and whose", "where", "whose", "?",
];

impl TemplatePlan {
    /// Compiles the plan over the static phrases and the built-in domain
    /// archetype library.
    pub fn compile() -> Self {
        let mut tokens = std::collections::BTreeMap::new();
        let mut add = |phrase: &str| {
            if !tokens.contains_key(phrase) {
                tokens.insert(phrase.to_string(), tokenize(phrase));
            }
        };
        for phrase in STATIC_PHRASES {
            add(phrase);
        }
        for d in crate::domains::DOMAINS {
            for col in d.columns {
                for n in col.names {
                    add(&n.to_lowercase());
                }
                for m in col.mentions {
                    add(m);
                }
                for p in col.paraphrases {
                    add(p);
                }
            }
        }
        TemplatePlan { tokens }
    }

    /// Number of compiled phrases.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the plan is empty (only true for `Default`).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    fn get(&self, phrase: &str) -> Option<&[String]> {
        self.tokens.get(phrase).map(Vec::as_slice)
    }
}

struct QBuilder<'p> {
    toks: Vec<String>,
    plan: Option<&'p TemplatePlan>,
}

impl QBuilder<'_> {
    /// Appends a phrase, returning its token span `[a, b)`.
    fn push(&mut self, phrase: &str) -> (usize, usize) {
        let a = self.toks.len();
        match self.plan.and_then(|p| p.get(phrase)) {
            Some(toks) => self.toks.extend_from_slice(toks),
            None => self.toks.extend(tokenize(phrase)),
        }
        (a, self.toks.len())
    }
}

/// Applies light morphological noise to a single word.
fn inflect(word: &str, rng: &mut Rng) -> String {
    if word.contains(' ') || word.len() < 3 {
        return word.to_string();
    }
    match rng.gen_range(0..3) {
        0 if !word.ends_with('s') => format!("{word}s"),
        1 if word.len() > 4 => word[..word.len() - 1].to_string(),
        _ => {
            let base = word.strip_suffix('e').unwrap_or(word);
            format!("{base}ing")
        }
    }
}

/// How a column ends up mentioned in the question.
#[derive(Debug, Clone, PartialEq)]
enum Surface {
    /// Some phrase is realized (schema name, synonym, or paraphrase).
    Phrase(String),
    /// Nothing is realized for the column.
    Implicit,
}

fn pick_surface(
    arch: &ColumnArchetype,
    schema_name: &str,
    allow_implicit: bool,
    noise: &NoiseConfig,
    rng: &mut Rng,
) -> Surface {
    if allow_implicit && arch.implicit_ok && rng.gen::<f32>() < noise.implicit_rate {
        return Surface::Implicit;
    }
    if !arch.paraphrases.is_empty() && rng.gen::<f32>() < noise.paraphrase_rate {
        let p = arch.paraphrases[rng.gen_range(0..arch.paraphrases.len())];
        return Surface::Phrase(p.to_string());
    }
    if rng.gen::<f32>() < noise.synonym_rate {
        let m = arch.mentions[rng.gen_range(0..arch.mentions.len())];
        let word = if rng.gen::<f32>() < noise.morph_rate { inflect(m, rng) } else { m.to_string() };
        return Surface::Phrase(word);
    }
    let name = schema_name.to_lowercase();
    let word = if rng.gen::<f32>() < noise.morph_rate {
        // Inflect the last word of a multi-word name.
        let mut parts: Vec<&str> = name.split(' ').collect();
        let last = parts.pop().unwrap_or("");
        let inflected = inflect(last, rng);
        if parts.is_empty() {
            inflected
        } else {
            format!("{} {}", parts.join(" "), inflected)
        }
    } else {
        name
    };
    Surface::Phrase(word)
}

fn literal_text(lit: &Literal) -> String {
    match lit {
        Literal::Text(t) => t.to_lowercase(),
        Literal::Number(_) => lit.canonical_text(),
    }
}

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Realizes one condition's clause body (column surface + operator words +
/// value), returning the column and value spans.
fn push_cond(
    b: &mut QBuilder,
    archetypes: &[ColumnArchetype],
    column_names: &[String],
    cond: &nlidb_sqlir::Cond,
    noise: &NoiseConfig,
    rng: &mut Rng,
) -> (Option<(usize, usize)>, (usize, usize), String) {
    let arch = &archetypes[cond.col];
    let allow_implicit = cond.op == CmpOp::Eq;
    let surface = pick_surface(arch, &column_names[cond.col], allow_implicit, noise, rng);
    let val_text = literal_text(&cond.value);
    let (col_span, val_span) = match (&surface, cond.op) {
        (Surface::Implicit, _) => {
            let prep = pick(rng, &["", "in", "by", "of", "from"]);
            if !prep.is_empty() {
                b.push(prep);
            }
            let v = b.push(&val_text);
            (None, v)
        }
        (Surface::Phrase(p), CmpOp::Eq) => {
            let c = b.push(p);
            let eq = pick(rng, &["", "is", "of", "being"]);
            if !eq.is_empty() {
                b.push(eq);
            }
            let v = b.push(&val_text);
            (Some(c), v)
        }
        (Surface::Phrase(p), op) => {
            let c = b.push(p);
            let op_phrase = match op {
                CmpOp::Gt => pick(rng, &["over", "above", "more than", "greater than"]),
                CmpOp::Lt => pick(rng, &["under", "below", "less than", "fewer than"]),
                CmpOp::Ge => pick(rng, &["at least", "no less than"]),
                CmpOp::Le => pick(rng, &["at most", "no more than"]),
                CmpOp::Ne => pick(rng, &["not", "other than"]),
                CmpOp::Eq => unreachable!("handled above"),
            };
            b.push(op_phrase);
            let v = b.push(&val_text);
            (Some(c), v)
        }
    };
    (col_span, val_span, val_text)
}

/// Renders a question for `query` against a table whose columns follow
/// `archetypes` and are named `column_names`. Returns the question tokens
/// and the gold mention slots.
pub fn realize_question(
    archetypes: &[ColumnArchetype],
    column_names: &[String],
    query: &Query,
    noise: &NoiseConfig,
    rng: &mut Rng,
) -> (Vec<String>, Vec<GoldSlot>) {
    realize_impl(None, archetypes, column_names, query, noise, rng)
}

/// [`realize_question`] through a compiled [`TemplatePlan`]: identical
/// output, but static phrases reuse the plan's token cache instead of
/// re-tokenizing — the hot path for sharded corpus generation.
pub fn realize_question_with(
    plan: &TemplatePlan,
    archetypes: &[ColumnArchetype],
    column_names: &[String],
    query: &Query,
    noise: &NoiseConfig,
    rng: &mut Rng,
) -> (Vec<String>, Vec<GoldSlot>) {
    realize_impl(Some(plan), archetypes, column_names, query, noise, rng)
}

fn realize_impl(
    plan: Option<&TemplatePlan>,
    archetypes: &[ColumnArchetype],
    column_names: &[String],
    query: &Query,
    noise: &NoiseConfig,
    rng: &mut Rng,
) -> (Vec<String>, Vec<GoldSlot>) {
    let mut b = QBuilder { toks: Vec::new(), plan };
    let mut slots = Vec::new();

    // --- Optionally inverted clause order (first condition leads) ---
    let inverted = !query.conds.is_empty() && rng.gen::<f32>() < noise.inverted_rate;
    if inverted {
        b.push(pick(rng, &["for", "with", "given", "in the case of"]));
        let (col_span, val_span, val_text) =
            push_cond(&mut b, archetypes, column_names, &query.conds[0], noise, rng);
        slots.push(GoldSlot {
            role: SlotRole::Cond(0),
            column: query.conds[0].col,
            col_span,
            value: Some(val_text),
            val_span: Some(val_span),
        });
        b.push(",");
    }

    // --- Select clause ---
    let sel_arch = &archetypes[query.select_col];
    let sel_surface =
        pick_surface(sel_arch, &column_names[query.select_col], false, noise, rng);
    let sel_phrase = match &sel_surface {
        Surface::Phrase(p) => p.clone(),
        Surface::Implicit => unreachable!("select surface is never implicit"),
    };
    let paraphrase_select = sel_arch.paraphrases.contains(&sel_phrase.as_str());
    let sel_span = match query.agg {
        _ if paraphrase_select => {
            // The paraphrase IS the question opener ("how many people live in ...").
            b.push(&sel_phrase)
        }
        Agg::None => {
            b.push(pick(rng, &["which", "what", "what is the", "tell me the"]));
            b.push(&sel_phrase)
        }
        Agg::Count => {
            b.push(pick(rng, &["how many", "what is the number of"]));
            b.push(&sel_phrase)
        }
        Agg::Max => {
            b.push(pick(rng, &["what is the highest", "what is the maximum", "which is the largest"]));
            b.push(&sel_phrase)
        }
        Agg::Min => {
            b.push(pick(rng, &["what is the lowest", "what is the minimum", "which is the smallest"]));
            b.push(&sel_phrase)
        }
        Agg::Sum => {
            b.push(pick(rng, &["what is the total", "what is the combined"]));
            b.push(&sel_phrase)
        }
        Agg::Avg => {
            b.push(pick(rng, &["what is the average", "what is the mean"]));
            b.push(&sel_phrase)
        }
    };
    slots.push(GoldSlot {
        role: SlotRole::Select,
        column: query.select_col,
        col_span: Some(sel_span),
        value: None,
        val_span: None,
    });

    // --- Conditions (skipping the fronted one if inverted) ---
    let mut any_emitted = inverted;
    let start = usize::from(inverted);
    for (ci, cond) in query.conds.iter().enumerate().skip(start) {
        if any_emitted {
            b.push(pick(rng, &["and", "and with", "and whose"]));
        } else if !paraphrase_select {
            b.push(pick(rng, &["with", "where", "for", "whose"]));
        }
        any_emitted = true;
        let (col_span, val_span, val_text) =
            push_cond(&mut b, archetypes, column_names, cond, noise, rng);
        slots.push(GoldSlot {
            role: SlotRole::Cond(ci),
            column: cond.col,
            col_span,
            value: Some(val_text),
            val_span: Some(val_span),
        });
    }

    b.push("?");
    (b.toks, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DOMAINS;

    fn film_setup() -> (&'static [ColumnArchetype], Vec<String>) {
        let d = &DOMAINS[0]; // films
        let names: Vec<String> = d.columns.iter().map(|c| c.names[0].to_string()).collect();
        (d.columns, names)
    }

    #[test]
    fn clean_question_mentions_schema_names() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let mut rng = Rng::seed_from_u64(1);
        let (toks, slots) = realize_question(arch, &names, &q, &NoiseConfig::clean(), &mut rng);
        let text = toks.join(" ");
        assert!(text.contains("film"), "select mention missing: {text}");
        assert!(text.contains("director"), "cond mention missing: {text}");
        assert!(text.contains("jerzy antczak"), "value missing: {text}");
        assert!(text.ends_with('?'));
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn gold_spans_point_at_the_right_tokens() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let mut rng = Rng::seed_from_u64(2);
        let (toks, slots) = realize_question(arch, &names, &q, &NoiseConfig::clean(), &mut rng);
        let cond = &slots[1];
        let (a, bb) = cond.val_span.unwrap();
        assert_eq!(&toks[a..bb], &["jerzy", "antczak"]);
        let (ca, cb) = cond.col_span.unwrap();
        assert_eq!(&toks[ca..cb], &["director"]);
    }

    #[test]
    fn implicit_channel_drops_column_mention() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let noise = NoiseConfig { implicit_rate: 1.0, ..NoiseConfig::clean() };
        let mut rng = Rng::seed_from_u64(3);
        let (toks, slots) = realize_question(arch, &names, &q, &noise, &mut rng);
        assert!(slots[1].col_span.is_none(), "column should be implicit");
        assert!(!toks.join(" ").contains("director"));
        assert!(toks.join(" ").contains("jerzy"));
    }

    #[test]
    fn paraphrase_channel_uses_long_phrase() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let noise = NoiseConfig { paraphrase_rate: 1.0, ..NoiseConfig::clean() };
        let mut rng = Rng::seed_from_u64(4);
        let (toks, slots) = realize_question(arch, &names, &q, &noise, &mut rng);
        let text = toks.join(" ");
        assert!(text.contains("directed by"), "paraphrase not used: {text}");
        let (a, bb) = slots[1].col_span.unwrap();
        assert_eq!(&toks[a..bb], &["directed", "by"]);
    }

    #[test]
    fn aggregate_prefixes() {
        let (arch, names) = film_setup();
        let mut rng = Rng::seed_from_u64(5);
        for (agg, marker) in [
            (Agg::Count, vec!["how many", "number of"]),
            (Agg::Max, vec!["highest", "maximum", "largest"]),
            (Agg::Min, vec!["lowest", "minimum", "smallest"]),
            (Agg::Sum, vec!["total", "combined"]),
            (Agg::Avg, vec!["average", "mean"]),
        ] {
            let q = Query::select(4).with_agg(agg); // Release Year (numeric)
            let (toks, _) =
                realize_question(arch, &names, &q, &NoiseConfig::clean(), &mut rng);
            let text = toks.join(" ");
            assert!(
                marker.iter().any(|m| text.contains(m)),
                "{agg:?} prefix missing in: {text}"
            );
        }
    }

    #[test]
    fn ordering_ops_realize_op_words() {
        let (arch, names) = film_setup();
        let mut rng = Rng::seed_from_u64(6);
        let q = Query::select(0).and_where(4, CmpOp::Gt, Literal::Number(2000.0));
        let (toks, slots) =
            realize_question(arch, &names, &q, &NoiseConfig::clean(), &mut rng);
        let text = toks.join(" ");
        assert!(
            ["over", "above", "more than", "greater than"].iter().any(|m| text.contains(m)),
            "Gt op word missing: {text}"
        );
        assert!(slots[1].col_span.is_some(), "ordering conds are never implicit");
        assert!(text.contains("2000"));
    }

    #[test]
    fn multi_condition_question_has_all_slots() {
        let (arch, names) = film_setup();
        let mut rng = Rng::seed_from_u64(7);
        let q = Query::select(0)
            .and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()))
            .and_where(2, CmpOp::Eq, Literal::Text("piotr adamczyk".into()));
        let (toks, slots) = realize_question(arch, &names, &q, &NoiseConfig::clean(), &mut rng);
        assert_eq!(slots.len(), 3);
        let text = toks.join(" ");
        assert!(text.contains("jerzy antczak"));
        assert!(text.contains("piotr adamczyk"));
        // Both values must have spans even if columns are implicit.
        assert!(slots[1].val_span.is_some());
        assert!(slots[2].val_span.is_some());
    }

    #[test]
    fn inverted_channel_fronts_the_first_condition() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let noise = NoiseConfig { inverted_rate: 1.0, ..NoiseConfig::clean() };
        let mut rng = Rng::seed_from_u64(12);
        let (toks, slots) = realize_question(arch, &names, &q, &noise, &mut rng);
        // The condition's value appears before the select mention.
        let sel = slots.iter().find(|s| s.role == SlotRole::Select).unwrap();
        let cond = slots.iter().find(|s| s.role == SlotRole::Cond(0)).unwrap();
        let (sa, _) = sel.col_span.unwrap();
        let (va, _) = cond.val_span.unwrap();
        assert!(va < sa, "inverted question should front the condition: {}", toks.join(" "));
        // Spans still align with the tokens.
        let (a, b) = cond.val_span.unwrap();
        assert_eq!(&toks[a..b], &["jerzy", "antczak"]);
    }

    #[test]
    fn realization_is_deterministic_per_seed() {
        let (arch, names) = film_setup();
        let q = Query::select(0).and_where(1, CmpOp::Eq, Literal::Text("jerzy antczak".into()));
        let run = |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            realize_question(arch, &names, &q, &NoiseConfig::default(), &mut rng).0
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn plan_realization_matches_plain_realization() {
        let plan = TemplatePlan::compile();
        assert!(!plan.is_empty());
        for d in DOMAINS {
            let names: Vec<String> =
                d.columns.iter().map(|c| c.names[0].to_string()).collect();
            let q = Query::select(0)
                .and_where(1, CmpOp::Eq, Literal::Text("ada lovelace".into()))
                .and_where(2, CmpOp::Eq, Literal::Text("42nd street".into()));
            for seed in 0..64 {
                let mut r1 = Rng::seed_from_u64(seed);
                let mut r2 = Rng::seed_from_u64(seed);
                let plain =
                    realize_question(d.columns, &names, &q, &NoiseConfig::default(), &mut r1);
                let planned = realize_question_with(
                    &plan,
                    d.columns,
                    &names,
                    &q,
                    &NoiseConfig::default(),
                    &mut r2,
                );
                assert_eq!(plain, planned, "domain {} seed {seed}", d.name);
            }
        }
    }

    #[test]
    fn inflect_produces_nonidentical_similar_word() {
        let mut rng = Rng::seed_from_u64(8);
        for w in ["director", "venue", "population"] {
            let i = inflect(w, &mut rng);
            assert_ne!(i, w);
            assert!(nlidb_text::edit_similarity(&i, w) > 0.5, "{w} -> {i}");
        }
    }
}
