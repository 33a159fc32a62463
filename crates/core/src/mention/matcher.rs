//! Context-free column-mention matching (§III, §VII-A1).
//!
//! The paper detects "mentions that are context-free" with string matching
//! under edit distance and semantic (embedding) distance, reserving the
//! neural classifier + adversarial localization for mentions that "heavily
//! rely on the context". This module implements the context-free tier,
//! including the optional §II metadata phrases `P_c`/`D_c`.

use nlidb_text::{edit_similarity, is_stop_word, EmbeddingSpace, Lexicon};

/// How a candidate was found (ordered by precedence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MatchSource {
    /// Exact token match against the column name.
    Exact,
    /// Registered metadata phrase (`P_c`/`D_c`).
    LexiconPhrase,
    /// Character-level (edit-distance) match.
    Edit,
    /// Embedding-space (semantic-distance) match.
    Semantic,
}

/// A candidate column mention.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnCandidate {
    /// Schema column index.
    pub column: usize,
    /// Question token span `[a, b)`.
    pub span: (usize, usize),
    /// Match confidence in `[0, 1]`.
    pub score: f32,
    /// Which matcher produced it.
    pub source: MatchSource,
}

/// Configuration thresholds for the context-free tier.
#[derive(Debug, Clone, Copy)]
pub struct MatcherConfig {
    /// Minimum edit similarity for a character-level match.
    pub edit_threshold: f32,
    /// Minimum cosine similarity for a semantic match.
    pub semantic_threshold: f32,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        MatcherConfig { edit_threshold: 0.72, semantic_threshold: 0.72 }
    }
}

/// Strips common inflectional suffixes for stem-level comparison
/// ("areaing" ~ "area", "names" ~ "name").
fn stem(word: &str) -> &str {
    for suffix in ["ing", "es", "ed", "s"] {
        if let Some(base) = word.strip_suffix(suffix) {
            if base.len() >= 3 {
                return base;
            }
        }
    }
    word
}

/// Morphological base-form candidates of a token ("aging" → {"ag", "age",
/// "agే"}-style de-inflections); used for exact base matching against
/// single-word column names.
fn morph_variants(token: &str) -> Vec<String> {
    let mut out = Vec::new();
    for suffix in ["ing", "es", "ed", "s"] {
        if let Some(base) = token.strip_suffix(suffix) {
            if base.len() >= 2 {
                out.push(base.to_string());
                // Undo e-drop before -ing/-ed ("aging" → "age").
                if matches!(suffix, "ing" | "ed") {
                    out.push(format!("{base}e"));
                }
            }
        }
    }
    out
}

fn stem_phrase(text: &str) -> String {
    text.split(' ').map(stem).collect::<Vec<_>>().join(" ")
}

/// Finds context-free column-mention candidates in a question.
///
/// For each column the best-scoring candidate is kept; ties break toward
/// the earlier, more precise source.
pub fn context_free_matches(
    question: &[String],
    column_names: &[String],
    space: &EmbeddingSpace,
    lexicon: &Lexicon,
    cfg: &MatcherConfig,
) -> Vec<ColumnCandidate> {
    let n = question.len();
    if n == 0 {
        return Vec::new();
    }
    let mut best: Vec<Option<ColumnCandidate>> = vec![None; column_names.len()];
    let consider = |cand: ColumnCandidate, best: &mut Vec<Option<ColumnCandidate>>| {
        let Some(slot) = best.get_mut(cand.column) else {
            return;
        };
        let replace = match slot {
            None => true,
            Some(prev) => {
                (cand.score, std::cmp::Reverse(cand.source))
                    > (prev.score, std::cmp::Reverse(prev.source))
            }
        };
        if replace {
            *slot = Some(cand);
        }
    };

    for (col, name) in column_names.iter().enumerate() {
        let name_tokens = nlidb_text::tokenize(name);
        let name_joined = name_tokens.join(" ");
        let max_span = (name_tokens.len() + 1).min(n).max(1);

        // Exact and edit-distance matching over spans near the name length.
        for len in 1..=max_span {
            for (a, span) in question.windows(len).enumerate() {
                let b = a + len;
                // Skip pure stop-word spans.
                if span.iter().all(|t| is_stop_word(t)) {
                    continue;
                }
                let text = span.join(" ");
                if text == name_joined {
                    consider(
                        ColumnCandidate { column: col, span: (a, b), score: 1.0, source: MatchSource::Exact },
                        &mut best,
                    );
                    continue;
                }
                let sim = edit_similarity(&text, &name_joined)
                    .max(edit_similarity(&stem_phrase(&text), &stem_phrase(&name_joined)));
                if sim >= cfg.edit_threshold {
                    consider(
                        ColumnCandidate { column: col, span: (a, b), score: sim, source: MatchSource::Edit },
                        &mut best,
                    );
                }
            }
        }

        // Morphological base matching: a de-inflected question token that
        // equals a name word exactly ("aging" → "age").
        for (i, tok) in question.iter().enumerate() {
            if is_stop_word(tok) {
                continue;
            }
            for nt in &name_tokens {
                if morph_variants(tok).iter().any(|v| v == nt) {
                    consider(
                        ColumnCandidate {
                            column: col,
                            span: (i, i + 1),
                            score: 0.92,
                            source: MatchSource::Edit,
                        },
                        &mut best,
                    );
                }
            }
        }

        // Semantic matching: single question words close to a name word in
        // the embedding space (footnote 1's "semantic distance").
        for (i, tok) in question.iter().enumerate() {
            if is_stop_word(tok) {
                continue;
            }
            for nt in &name_tokens {
                let sim = space.word_similarity(tok, nt);
                if sim >= cfg.semantic_threshold {
                    consider(
                        ColumnCandidate {
                            column: col,
                            span: (i, i + 1),
                            // Semantic scores cap below exact and phrase matches.
                            score: sim.min(0.9),
                            source: MatchSource::Semantic,
                        },
                        &mut best,
                    );
                }
            }
        }

        // Metadata phrases P_c / D_c (§II): exact subsequence match.
        for phrase in lexicon.mention_phrases(name) {
            let m = phrase.len();
            if m == 0 || m > n {
                continue;
            }
            for (a, span) in question.windows(m).enumerate() {
                if span == phrase.as_slice() {
                    consider(
                        ColumnCandidate {
                            column: col,
                            span: (a, a + m),
                            score: 0.97,
                            source: MatchSource::LexiconPhrase,
                        },
                        &mut best,
                    );
                }
            }
        }
        for expr in lexicon.describe_phrases(name) {
            let phrase = nlidb_text::tokenize(expr);
            let m = phrase.len();
            if m == 0 || m > n {
                continue;
            }
            for (a, span) in question.windows(m).enumerate() {
                if span == phrase.as_slice() {
                    consider(
                        ColumnCandidate {
                            column: col,
                            span: (a, a + m),
                            score: 0.93,
                            source: MatchSource::LexiconPhrase,
                        },
                        &mut best,
                    );
                }
            }
        }
    }
    best.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_text::tokenize;

    fn setup() -> (EmbeddingSpace, Lexicon, MatcherConfig) {
        (
            EmbeddingSpace::with_builtin_lexicon(24, 11),
            Lexicon::builtin(),
            MatcherConfig::default(),
        )
    }

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn exact_match_single_word() {
        let (space, lex, cfg) = setup();
        let q = tokenize("which film was directed by jerzy antczak?");
        let found =
            context_free_matches(&q, &cols(&["Film Name", "Director"]), &space, &lex, &cfg);
        let film = found.iter().find(|c| c.column == 0).expect("film matched");
        assert_eq!(&q[film.span.0..film.span.1][0], "film");
    }

    #[test]
    fn exact_match_multiword_name() {
        let (space, lex, cfg) = setup();
        let q = tokenize("what is the english name of mayo?");
        let found = context_free_matches(&q, &cols(&["English Name"]), &space, &lex, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].source, MatchSource::Exact);
        assert_eq!(found[0].span, (3, 5));
        assert_eq!(found[0].score, 1.0);
    }

    #[test]
    fn edit_distance_catches_morphology() {
        let (space, lex, cfg) = setup();
        let q = tokenize("who directed the picture?");
        let found = context_free_matches(&q, &cols(&["Director"]), &space, &lex, &cfg);
        let d = found.iter().find(|c| c.column == 0).expect("directed ~ director");
        assert!(matches!(d.source, MatchSource::Edit | MatchSource::Semantic));
        assert_eq!(&q[d.span.0..d.span.1][0], "directed");
    }

    #[test]
    fn semantic_catches_synonyms() {
        let (space, lex, cfg) = setup();
        // "movie" is in the same lexicon cluster as "film".
        let q = tokenize("which movie won the award?");
        let found = context_free_matches(&q, &cols(&["Film"]), &space, &lex, &cfg);
        let f = found.iter().find(|c| c.column == 0).expect("movie ~ film");
        assert_eq!(&q[f.span.0..f.span.1][0], "movie");
    }

    #[test]
    fn lexicon_phrase_matches_paraphrase() {
        let (space, mut lex, cfg) = setup();
        lex.add_mention_phrase("Population", "how many people live in");
        let q = tokenize("how many people live in mayo?");
        let found = context_free_matches(&q, &cols(&["Population"]), &space, &lex, &cfg);
        let p = found.iter().find(|c| c.column == 0).expect("paraphrase matched");
        assert_eq!(p.source, MatchSource::LexiconPhrase);
        assert_eq!(p.span, (0, 5));
    }

    #[test]
    fn unrelated_columns_are_not_matched() {
        let (space, lex, cfg) = setup();
        let q = tokenize("which film was directed by jerzy antczak?");
        let found = context_free_matches(&q, &cols(&["Population"]), &space, &lex, &cfg);
        assert!(found.is_empty(), "spurious match: {found:?}");
    }

    #[test]
    fn stop_word_spans_are_skipped() {
        let (space, lex, cfg) = setup();
        // Column literally named "The Of" should not match stop words.
        let q = tokenize("the of which what");
        let found = context_free_matches(&q, &cols(&["The Of"]), &space, &lex, &cfg);
        assert!(found.is_empty());
    }

    #[test]
    fn best_candidate_per_column_wins() {
        let (space, lex, cfg) = setup();
        // Both "film" (exact) and "movie" (semantic) present; exact wins.
        let q = tokenize("which movie or film is best?");
        let found = context_free_matches(&q, &cols(&["Film"]), &space, &lex, &cfg);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].source, MatchSource::Exact);
        assert_eq!(&q[found[0].span.0..found[0].span.1][0], "film");
    }

    #[test]
    fn empty_question_matches_nothing() {
        let (space, lex, cfg) = setup();
        let found = context_free_matches(&[], &cols(&["Film"]), &space, &lex, &cfg);
        assert!(found.is_empty());
    }
}
