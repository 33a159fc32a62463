//! Cell values and literal comparison semantics.

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_sqlir::{canonical_tokens, Literal};
use std::cmp::Ordering;
use std::fmt;

/// A single table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text cell.
    Text(String),
    /// Integer cell.
    Int(i64),
    /// Float cell.
    Float(f64),
    /// Missing value.
    Null,
}

/// A cell's variant and value, hashable, with a float keyed by its bits.
/// Cells with equal keys have equal display text, tokens, canonical text
/// and number, so work derived from one cell holds for every cell with
/// its key (`TableStats::compute`, `ValueIndex::build`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKey<'a> {
    /// Text cell.
    Text(&'a str),
    /// Integer cell.
    Int(i64),
    /// Float cell, by [`f64::to_bits`].
    Float(u64),
    /// Missing value.
    Null,
}

impl Value {
    /// This cell's [`CellKey`].
    pub fn key(&self) -> CellKey<'_> {
        match self {
            Value::Text(t) => CellKey::Text(t),
            Value::Int(i) => CellKey::Int(*i),
            Value::Float(f) => CellKey::Float(f.to_bits()),
            Value::Null => CellKey::Null,
        }
    }

    /// Numeric view, if the value is numeric or numeric-looking text.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Text(t) => t.trim().parse().ok(),
            Value::Null => None,
        }
    }

    /// Canonical text form for equality comparison — delegates to the SQL
    /// literal canonicalization so cell text and literals normalize
    /// identically (punctuation re-tokenized, lowercased).
    pub fn canonical_text(&self) -> String {
        match self {
            Value::Text(t) => canonical_tokens(t),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{}", *f as i64)
                } else {
                    format!("{f}")
                }
            }
            Value::Null => String::new(),
        }
    }

    /// Compares this cell against a SQL literal with the given operator
    /// semantics: numeric when both sides are numeric, else canonical-text
    /// (ordering on text is lexicographic). `Null` matches nothing.
    pub fn compare(&self, lit: &Literal) -> Option<Ordering> {
        if matches!(self, Value::Null) {
            return None;
        }
        if let (Some(a), Some(b)) = (self.as_number(), lit.as_number()) {
            return a.partial_cmp(&b);
        }
        Some(self.canonical_text().cmp(&lit.canonical_text()))
    }
}

/// A SQL literal with its number and canonical text derived once, so a
/// scan that compares many cells against it (`execute`) does the
/// literal's half of [`Value::compare`] once per query, not once per row.
#[derive(Debug, Clone)]
pub struct PreparedLiteral {
    number: Option<f64>,
    text: String,
}

impl PreparedLiteral {
    /// Derives `lit`'s comparison keys.
    pub fn new(lit: &Literal) -> PreparedLiteral {
        PreparedLiteral { number: lit.as_number(), text: lit.canonical_text() }
    }

    /// `cell.compare(lit)` for the literal this was prepared from.
    pub fn compare(&self, cell: &Value) -> Option<Ordering> {
        if matches!(cell, Value::Null) {
            return None;
        }
        if let (Some(a), Some(b)) = (cell.as_number(), self.number) {
            return a.partial_cmp(&b);
        }
        Some(cell.canonical_text().cmp(&self.text))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(t) => write!(f, "{t}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Json {
        match self {
            Value::Text(t) => Json::obj([("Text", Json::Str(t.clone()))]),
            Value::Int(i) => Json::obj([("Int", Json::Int(*i))]),
            Value::Float(f) => Json::obj([("Float", Json::Float(*f))]),
            Value::Null => Json::Str("Null".into()),
        }
    }
}

impl FromJson for Value {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if j.as_str() == Some("Null") {
            return Ok(Value::Null);
        }
        if let Some(t) = j.get("Text") {
            return Ok(Value::Text(String::from_json(t)?));
        }
        if let Some(i) = j.get("Int") {
            return Ok(Value::Int(i64::from_json(i)?));
        }
        if let Some(f) = j.get("Float") {
            return Ok(Value::Float(f64::from_json(f)?));
        }
        Err(JsonError::new(format!("invalid cell value: {j}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_comparison_crosses_types() {
        let v = Value::Int(10);
        assert_eq!(v.compare(&Literal::Number(3.0)), Some(Ordering::Greater));
        assert_eq!(v.compare(&Literal::Text("10".into())), Some(Ordering::Equal));
        let v = Value::Text("2.5".into());
        assert_eq!(v.compare(&Literal::Number(2.5)), Some(Ordering::Equal));
    }

    #[test]
    fn text_comparison_is_case_insensitive() {
        let v = Value::Text("Mayo".into());
        assert_eq!(v.compare(&Literal::Text("mayo".into())), Some(Ordering::Equal));
        assert_eq!(v.compare(&Literal::Text(" MAYO ".into())), Some(Ordering::Equal));
    }

    #[test]
    fn null_matches_nothing() {
        assert_eq!(Value::Null.compare(&Literal::Text("".into())), None);
        assert_eq!(Value::Null.compare(&Literal::Number(0.0)), None);
    }

    #[test]
    fn canonical_text_formats() {
        assert_eq!(Value::Float(42.0).canonical_text(), "42");
        assert_eq!(Value::Float(2.5).canonical_text(), "2.5");
        assert_eq!(Value::Int(-3).canonical_text(), "-3");
        assert_eq!(Value::Text(" X ".into()).canonical_text(), "x");
    }
}
