//! Question annotation `q -> q^a` (§V-A).
//!
//! Turns mention slots (gold at training time, detected at inference time)
//! into the annotated question the seq2seq model consumes. Two encoding
//! decisions from the paper, both ablated in Table II:
//!
//! - **Symbol appending vs. substitution** (§V-A-1): inserting `c_i`/`v_i`
//!   symbols *next to* the mention keeps the mention's semantics available
//!   to the sequence model; substitution replaces the mention with the bare
//!   symbol.
//! - **Table-header encoding** (§V-A-2): appending `g_k <column words>`
//!   for every schema column lets the decoder produce multi-token columns
//!   never mentioned in the question as a single `g_k` token.

use nlidb_data::Example;
use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_sqlir::{AnnotatedSql, AnnotationMap, Slot};

use crate::mention::DetectedSlot;

/// §V-A-1 symbol-encoding choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymbolEncoding {
    /// Insert the symbol before the mention, keeping the mention words
    /// ("column name appending" — the paper's best).
    Appending,
    /// Replace the mention words with the symbol (ablation).
    Substitution,
}

impl ToJson for SymbolEncoding {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                SymbolEncoding::Appending => "Appending",
                SymbolEncoding::Substitution => "Substitution",
            }
            .to_string(),
        )
    }
}

impl FromJson for SymbolEncoding {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("Appending") => Ok(SymbolEncoding::Appending),
            Some("Substitution") => Ok(SymbolEncoding::Substitution),
            _ => Err(JsonError::new("expected SymbolEncoding variant name")),
        }
    }
}

/// Annotation configuration (the Table II ablation axes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnotateConfig {
    /// Symbol encoding.
    pub encoding: SymbolEncoding,
    /// Whether to append table headers as `g_k` blocks.
    pub header_encoding: bool,
}

impl ToJson for AnnotateConfig {
    fn to_json(&self) -> Json {
        Json::obj([
            ("encoding", self.encoding.to_json()),
            ("header_encoding", self.header_encoding.to_json()),
        ])
    }
}

impl FromJson for AnnotateConfig {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(AnnotateConfig {
            encoding: j.req("encoding")?,
            header_encoding: j.req("header_encoding")?,
        })
    }
}

impl Default for AnnotateConfig {
    fn default() -> Self {
        AnnotateConfig { encoding: SymbolEncoding::Appending, header_encoding: true }
    }
}

/// An annotated question plus its placeholder map.
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// The annotated token sequence `q^a`.
    pub tokens: Vec<String>,
    /// Placeholder resolution map for recovery.
    pub map: AnnotationMap,
}

/// Builds the annotation from detected slots (inference path).
pub fn annotate(
    question: &[String],
    slots: &[DetectedSlot],
    column_names: &[String],
    cfg: &AnnotateConfig,
    max_headers: usize,
) -> Annotation {
    // Collect insertions/substitutions: (position, symbol, span_end).
    #[derive(Clone)]
    struct Mark {
        pos: usize,
        end: usize,
        symbol: String,
    }
    let mut marks: Vec<Mark> = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        if let Some((a, b)) = s.col_span {
            marks.push(Mark { pos: a, end: b, symbol: format!("c{}", i + 1) });
        }
        if let Some((a, b)) = s.val_span {
            marks.push(Mark { pos: a, end: b, symbol: format!("v{}", i + 1) });
        }
    }
    marks.sort_by_key(|m| m.pos);

    let mut tokens: Vec<String> = Vec::with_capacity(question.len() + marks.len() + 24);
    let mut cursor = 0usize;
    for m in &marks {
        if m.pos < cursor {
            // Overlapping mark (possible with detected spans): skip it.
            continue;
        }
        tokens.extend(question.iter().take(m.pos).skip(cursor).cloned());
        tokens.push(m.symbol.clone());
        match cfg.encoding {
            SymbolEncoding::Appending => {
                tokens.extend(question.iter().take(m.end).skip(m.pos).cloned());
            }
            SymbolEncoding::Substitution => {}
        }
        cursor = m.end;
    }
    tokens.extend(question.iter().skip(cursor).cloned());

    let headers: Vec<usize> = (0..column_names.len().min(max_headers)).collect();
    if cfg.header_encoding {
        for (k, name) in column_names.iter().enumerate().take(max_headers) {
            tokens.push(format!("g{}", k + 1));
            tokens.extend(nlidb_text::tokenize(name));
        }
    }

    let map = AnnotationMap {
        slots: slots
            .iter()
            .map(|s| Slot { column: Some(s.column), value: s.value.clone() })
            .collect(),
        headers,
    };
    Annotation { tokens, map }
}

/// Converts an example's gold slots into detection-shaped slots in
/// question-appearance order (the same ordering inference produces).
pub fn gold_slots(e: &Example) -> Vec<DetectedSlot> {
    let mut slots: Vec<DetectedSlot> = e
        .slots
        .iter()
        .map(|s| DetectedSlot {
            column: s.column,
            col_span: s.col_span,
            value: s.value.clone(),
            val_span: s.val_span,
        })
        .collect();
    slots.sort_by_key(DetectedSlot::position);
    slots
}

/// Gold annotation for a training example.
pub fn annotate_gold(e: &Example, cfg: &AnnotateConfig, max_headers: usize) -> Annotation {
    let slots = gold_slots(e);
    annotate(&e.question, &slots, &e.table.column_names(), cfg, max_headers)
}

/// The gold seq2seq target for an example under an annotation map.
pub fn gold_target(e: &Example, map: &AnnotationMap) -> AnnotatedSql {
    nlidb_sqlir::annotate_query(&e.query, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_data::wikisql::{generate, WikiSqlConfig};
    use nlidb_sqlir::recover;

    fn ds() -> nlidb_data::Dataset {
        generate(&WikiSqlConfig::tiny(61))
    }

    #[test]
    fn appending_keeps_mention_words_and_adds_symbols() {
        let ds = ds();
        let e = &ds.train[0];
        let ann = annotate_gold(e, &AnnotateConfig::default(), 10);
        // All question words survive.
        for w in &e.question {
            assert!(ann.tokens.contains(w), "lost word {w}");
        }
        // At least one symbol inserted (every question has a select slot,
        // whose span is always explicit in gold data).
        assert!(ann.tokens.iter().any(|t| t.starts_with('c') && t.len() == 2));
    }

    #[test]
    fn substitution_removes_mention_words() {
        let ds = ds();
        // Find an example with an explicit condition column mention.
        let e = ds
            .train
            .iter()
            .find(|e| e.slots.iter().any(|s| s.col_span.is_some() && s.value.is_some()))
            .expect("example with explicit cond");
        let app = annotate_gold(
            e,
            &AnnotateConfig { encoding: SymbolEncoding::Appending, header_encoding: false },
            10,
        );
        let sub = annotate_gold(
            e,
            &AnnotateConfig { encoding: SymbolEncoding::Substitution, header_encoding: false },
            10,
        );
        assert!(sub.tokens.len() < app.tokens.len(), "substitution should be shorter");
    }

    #[test]
    fn header_encoding_appends_g_blocks() {
        let ds = ds();
        let e = &ds.train[0];
        let with = annotate_gold(e, &AnnotateConfig::default(), 10);
        let without = annotate_gold(
            e,
            &AnnotateConfig { encoding: SymbolEncoding::Appending, header_encoding: false },
            10,
        );
        assert!(with.tokens.len() > without.tokens.len());
        assert!(with.tokens.contains(&"g1".to_string()));
        assert!(!without.tokens.contains(&"g1".to_string()));
        assert_eq!(with.map.headers.len(), e.table.num_cols().min(10));
    }

    #[test]
    fn max_headers_truncates() {
        let ds = ds();
        let e = &ds.train[0];
        let ann = annotate_gold(e, &AnnotateConfig::default(), 2);
        assert_eq!(ann.map.headers.len(), 2.min(e.table.num_cols()));
        assert!(!ann.tokens.contains(&"g3".to_string()));
    }

    #[test]
    fn gold_target_recovers_to_gold_query() {
        // End-to-end invariant: annotate, build the target, recover, and
        // land back on the gold query (canonical match) for every example.
        let ds = ds();
        let mut checked = 0;
        for e in ds.train.iter().chain(&ds.dev) {
            let ann = annotate_gold(e, &AnnotateConfig::default(), 10);
            let target = gold_target(e, &ann.map);
            let back = recover(&target, &ann.map).expect("gold target must recover");
            assert!(
                nlidb_sqlir::query_match(&back, &e.query),
                "recovery mismatch:\n q: {}\n gold: {}\n got: {}",
                e.question_text(),
                e.sql_text(),
                back.to_sql(&e.table.column_names())
            );
            checked += 1;
        }
        assert!(checked > 20);
    }

    #[test]
    fn symbols_precede_their_mentions() {
        let ds = ds();
        let e = ds
            .train
            .iter()
            .find(|e| e.slots.iter().any(|s| s.col_span.is_some()))
            .unwrap();
        let ann = annotate_gold(
            e,
            &AnnotateConfig { encoding: SymbolEncoding::Appending, header_encoding: false },
            10,
        );
        let slots = gold_slots(e);
        // The first slot with an explicit column: its symbol must appear
        // immediately before the mention's first word.
        let (i, s) = slots
            .iter()
            .enumerate()
            .find(|(_, s)| s.col_span.is_some())
            .unwrap();
        let sym = format!("c{}", i + 1);
        let pos = ann.tokens.iter().position(|t| *t == sym).expect("symbol present");
        let (a, _) = s.col_span.unwrap();
        assert_eq!(ann.tokens[pos + 1], e.question[a]);
    }

    #[test]
    fn detected_overlapping_marks_do_not_duplicate_tokens() {
        // Construct artificial overlapping slots.
        let q: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let slots = vec![
            DetectedSlot {
                column: 0,
                col_span: Some((0, 3)),
                value: None,
                val_span: None,
            },
            DetectedSlot {
                column: 1,
                col_span: Some((1, 2)), // overlaps the first
                value: None,
                val_span: None,
            },
        ];
        let names = vec!["X".to_string(), "Y".to_string()];
        let ann = annotate(
            &q,
            &slots,
            &names,
            &AnnotateConfig { encoding: SymbolEncoding::Appending, header_encoding: false },
            10,
        );
        // Overlapping second mark skipped; all words exactly once.
        let words: Vec<&String> =
            ann.tokens.iter().filter(|t| ["a", "b", "c", "d"].contains(&t.as_str())).collect();
        assert_eq!(words.len(), 4, "{:?}", ann.tokens);
    }
}
