//! WikiSQL-class SQL abstract syntax.
//!
//! WikiSQL queries (and therefore the paper's target language) are single
//! table `SELECT <agg>(<col>) WHERE <col> <op> <val> (AND ...)*` statements;
//! [`Query`] models exactly that. Columns are referenced by index into the
//! owning table's schema, as in the WikiSQL release.

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Aggregate applied to the selected column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agg {
    /// Plain projection.
    None,
    /// `COUNT`.
    Count,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
}

impl Agg {
    /// All aggregate variants (stable order).
    pub const ALL: [Agg; 6] = [Agg::None, Agg::Count, Agg::Min, Agg::Max, Agg::Sum, Agg::Avg];

    /// SQL keyword, empty for [`Agg::None`].
    pub fn keyword(self) -> &'static str {
        match self {
            Agg::None => "",
            Agg::Count => "COUNT",
            Agg::Min => "MIN",
            Agg::Max => "MAX",
            Agg::Sum => "SUM",
            Agg::Avg => "AVG",
        }
    }

    /// Parses a keyword (case-insensitive).
    pub fn from_keyword(kw: &str) -> Option<Agg> {
        match kw.to_ascii_uppercase().as_str() {
            "COUNT" => Some(Agg::Count),
            "MIN" => Some(Agg::Min),
            "MAX" => Some(Agg::Max),
            "SUM" => Some(Agg::Sum),
            "AVG" => Some(Agg::Avg),
            _ => None,
        }
    }
}

/// Comparison operator in a `WHERE` condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `>`
    Gt,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `<=`
    Le,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// All operators (stable order).
    pub const ALL: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le, CmpOp::Ne];

    /// SQL symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Gt => ">",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Le => "<=",
            CmpOp::Ne => "!=",
        }
    }

    /// Parses a symbol.
    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        match s {
            "=" | "==" => Some(CmpOp::Eq),
            ">" => Some(CmpOp::Gt),
            "<" => Some(CmpOp::Lt),
            ">=" => Some(CmpOp::Ge),
            "<=" => Some(CmpOp::Le),
            "!=" | "<>" => Some(CmpOp::Ne),
            _ => None,
        }
    }
}

/// A condition literal. Text and numbers are kept distinct so execution can
/// compare numerically when the column is numeric.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// A text value (comparison is case-insensitive after trimming).
    Text(String),
    /// A numeric value.
    Number(f64),
}

impl Literal {
    /// Parses a raw string: numeric if it parses as `f64`, else text.
    pub fn parse(raw: &str) -> Literal {
        let trimmed = raw.trim();
        match trimmed.parse::<f64>() {
            Ok(n) => Literal::Number(n),
            Err(_) => Literal::Text(trimmed.to_string()),
        }
    }

    /// Numeric view if this literal is (or parses as) a number.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Literal::Number(n) => Some(*n),
            Literal::Text(t) => t.trim().parse().ok(),
        }
    }

    /// Canonical text used for equality comparisons and canonical forms:
    /// lowercased and re-tokenized (punctuation separated by single
    /// spaces), so surface spacing differences do not affect matching.
    pub fn canonical_text(&self) -> String {
        match self {
            Literal::Text(t) => canonical_tokens(t),
            Literal::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
        }
    }
}

/// Lowercases and splits punctuation into space-separated tokens: the
/// canonical text of `Literal::Text(text)`, for callers that hold a
/// `&str` and would otherwise clone it into a literal.
pub fn canonical_tokens(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut prev_space = true;
    for ch in text.trim().chars() {
        let c = ch.to_ascii_lowercase();
        let is_word = c.is_alphanumeric() || c == '-' || c == '_' || c == '\'';
        if is_word {
            out.push(c);
            prev_space = false;
        } else if c.is_whitespace() {
            if !prev_space {
                out.push(' ');
                prev_space = true;
            }
        } else {
            if !prev_space {
                out.push(' ');
            }
            out.push(c);
            out.push(' ');
            prev_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Text(t) => write!(f, "\"{t}\""),
            Literal::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
        }
    }
}

/// One `WHERE` condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Column index into the table schema.
    pub col: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand-side literal.
    pub value: Literal,
}

/// A complete WikiSQL-class query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Aggregate over the selected column.
    pub agg: Agg,
    /// Selected column index.
    pub select_col: usize,
    /// Conjunctive conditions (possibly empty).
    pub conds: Vec<Cond>,
}

impl Query {
    /// A bare projection with no conditions.
    pub fn select(col: usize) -> Query {
        Query { agg: Agg::None, select_col: col, conds: Vec::new() }
    }

    /// Builder: sets the aggregate.
    pub fn with_agg(mut self, agg: Agg) -> Query {
        self.agg = agg;
        self
    }

    /// Builder: appends a condition.
    pub fn and_where(mut self, col: usize, op: CmpOp, value: Literal) -> Query {
        self.conds.push(Cond { col, op, value });
        self
    }

    /// Renders concrete SQL given the schema's column names.
    pub fn to_sql(&self, columns: &[String]) -> String {
        let col_name = |i: usize| {
            columns.get(i).cloned().unwrap_or_else(|| format!("col{i}"))
        };
        let mut s = String::from("SELECT ");
        match self.agg {
            Agg::None => s.push_str(&col_name(self.select_col)),
            agg => {
                s.push_str(agg.keyword());
                s.push('(');
                s.push_str(&col_name(self.select_col));
                s.push(')');
            }
        }
        if !self.conds.is_empty() {
            s.push_str(" WHERE ");
            for (i, c) in self.conds.iter().enumerate() {
                if i > 0 {
                    s.push_str(" AND ");
                }
                s.push_str(&format!("{} {} {}", col_name(c.col), c.op.symbol(), c.value));
            }
        }
        s
    }

    /// The logical-form token sequence used for `Acc_lf`: exact
    /// token-by-token comparison including condition order.
    pub fn logical_tokens(&self) -> Vec<String> {
        let mut toks = vec!["select".to_string()];
        if self.agg != Agg::None {
            toks.push(self.agg.keyword().to_lowercase());
        }
        toks.push(format!("col{}", self.select_col));
        if !self.conds.is_empty() {
            toks.push("where".to_string());
            for (i, c) in self.conds.iter().enumerate() {
                if i > 0 {
                    toks.push("and".to_string());
                }
                toks.push(format!("col{}", c.col));
                toks.push(c.op.symbol().to_string());
                toks.push(c.value.canonical_text());
            }
        }
        toks
    }
}

impl ToJson for Agg {
    fn to_json(&self) -> Json {
        let name = match self {
            Agg::None => "None",
            Agg::Count => "Count",
            Agg::Min => "Min",
            Agg::Max => "Max",
            Agg::Sum => "Sum",
            Agg::Avg => "Avg",
        };
        Json::Str(name.to_string())
    }
}

impl FromJson for Agg {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_str() {
            Some("None") => Ok(Agg::None),
            Some("Count") => Ok(Agg::Count),
            Some("Min") => Ok(Agg::Min),
            Some("Max") => Ok(Agg::Max),
            Some("Sum") => Ok(Agg::Sum),
            Some("Avg") => Ok(Agg::Avg),
            _ => Err(JsonError::new(format!("invalid aggregate: {j}"))),
        }
    }
}

impl ToJson for CmpOp {
    fn to_json(&self) -> Json {
        Json::Str(self.symbol().to_string())
    }
}

impl FromJson for CmpOp {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .and_then(CmpOp::from_symbol)
            .ok_or_else(|| JsonError::new(format!("invalid comparison operator: {j}")))
    }
}

impl ToJson for Literal {
    fn to_json(&self) -> Json {
        match self {
            Literal::Text(t) => Json::obj([("Text", Json::Str(t.clone()))]),
            Literal::Number(n) => Json::obj([("Number", Json::Float(*n))]),
        }
    }
}

impl FromJson for Literal {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Some(t) = j.get("Text") {
            return Ok(Literal::Text(String::from_json(t)?));
        }
        if let Some(n) = j.get("Number") {
            return Ok(Literal::Number(f64::from_json(n)?));
        }
        Err(JsonError::new(format!("invalid literal: {j}")))
    }
}

impl ToJson for Cond {
    fn to_json(&self) -> Json {
        Json::obj([
            ("col", self.col.to_json()),
            ("op", self.op.to_json()),
            ("value", self.value.to_json()),
        ])
    }
}

impl FromJson for Cond {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Cond { col: j.req("col")?, op: j.req("op")?, value: j.req("value")? })
    }
}

impl ToJson for Query {
    fn to_json(&self) -> Json {
        Json::obj([
            ("agg", self.agg.to_json()),
            ("select_col", self.select_col.to_json()),
            ("conds", self.conds.to_json()),
        ])
    }
}

impl FromJson for Query {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Query { agg: j.req("agg")?, select_col: j.req("select_col")?, conds: j.req("conds")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<String> {
        ["Film_Name", "Director", "Actor"].iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn render_plain_select() {
        let q = Query::select(0);
        assert_eq!(q.to_sql(&cols()), "SELECT Film_Name");
    }

    #[test]
    fn render_full_query() {
        let q = Query::select(0)
            .and_where(1, CmpOp::Eq, Literal::Text("Jerzy Antczak".into()))
            .and_where(2, CmpOp::Eq, Literal::Text("Piotr Adamczyk".into()));
        assert_eq!(
            q.to_sql(&cols()),
            "SELECT Film_Name WHERE Director = \"Jerzy Antczak\" AND Actor = \"Piotr Adamczyk\""
        );
    }

    #[test]
    fn render_aggregate() {
        let q = Query::select(2).with_agg(Agg::Count).and_where(1, CmpOp::Gt, Literal::Number(3.0));
        assert_eq!(q.to_sql(&cols()), "SELECT COUNT(Actor) WHERE Director > 3");
    }

    #[test]
    fn literal_parse_distinguishes_numbers() {
        assert_eq!(Literal::parse("42"), Literal::Number(42.0));
        assert_eq!(Literal::parse(" 3.5 "), Literal::Number(3.5));
        assert_eq!(Literal::parse("Mayo"), Literal::Text("Mayo".into()));
    }

    #[test]
    fn literal_canonical_text() {
        assert_eq!(Literal::Text("  Mayo ".into()).canonical_text(), "mayo");
        assert_eq!(Literal::Number(42.0).canonical_text(), "42");
        assert_eq!(Literal::Number(2.5).canonical_text(), "2.5");
    }

    #[test]
    fn agg_keyword_roundtrip() {
        for agg in Agg::ALL {
            if agg == Agg::None {
                continue;
            }
            assert_eq!(Agg::from_keyword(agg.keyword()), Some(agg));
        }
        assert_eq!(Agg::from_keyword("nope"), None);
    }

    #[test]
    fn op_symbol_roundtrip() {
        for op in CmpOp::ALL {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("<>"), Some(CmpOp::Ne));
    }

    #[test]
    fn logical_tokens_preserve_order() {
        let a = Query::select(0)
            .and_where(1, CmpOp::Eq, Literal::Text("x".into()))
            .and_where(2, CmpOp::Eq, Literal::Text("y".into()));
        let b = Query::select(0)
            .and_where(2, CmpOp::Eq, Literal::Text("y".into()))
            .and_where(1, CmpOp::Eq, Literal::Text("x".into()));
        assert_ne!(a.logical_tokens(), b.logical_tokens());
    }

    #[test]
    fn out_of_range_column_renders_placeholder() {
        let q = Query::select(9);
        assert_eq!(q.to_sql(&cols()), "SELECT col9");
    }

    #[test]
    fn query_json_roundtrip() {
        let q = Query::select(1)
            .with_agg(Agg::Count)
            .and_where(0, CmpOp::Ge, Literal::Number(2.5))
            .and_where(2, CmpOp::Eq, Literal::Text("mayo".into()));
        let j = q.to_json();
        assert_eq!(Query::from_json(&j).unwrap(), q);
        let reparsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(Query::from_json(&reparsed).unwrap(), q);
    }
}
