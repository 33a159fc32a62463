//! Query execution, used for the paper's execution accuracy (`Acc_ex`).

use std::cmp::Ordering;

use nlidb_sqlir::{Agg, CmpOp, Query};

use crate::table::Table;
use crate::value::{PreparedLiteral, Value};

/// The result of executing a query: a bag of values (single projected
/// column, or a single aggregate value).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Result values in row order.
    pub values: Vec<Value>,
}

impl ResultSet {
    /// Order-insensitive multiset equality on canonical text — the paper
    /// compares "whether the results agree", and WikiSQL answers are
    /// unordered.
    pub fn same_as(&self, other: &ResultSet) -> bool {
        if self.values.len() != other.values.len() {
            return false;
        }
        let canon = |rs: &ResultSet| {
            let mut v: Vec<String> = rs.values.iter().map(Value::canonical_text).collect();
            v.sort();
            v
        };
        canon(self) == canon(other)
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the result is **provably empty** ("vacuous"): it carries
    /// no rows at all, or every value is NULL (the marker a numeric
    /// aggregate emits over an empty or all-NULL selection). This is the
    /// exact predicate execution-guided decoding prunes on — note that
    /// `COUNT` answers are integers, so a zero count (`Int(0)`) is a
    /// real answer and never vacuous, and a vacuous result is still an
    /// `Ok` execution, distinguishable from every [`ExecError`].
    pub fn is_vacuous(&self) -> bool {
        self.values.iter().all(|v| matches!(v, Value::Null))
    }
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A referenced column index is outside the schema.
    BadColumn(usize),
    /// Numeric aggregate over a non-numeric column.
    NonNumericAggregate {
        /// Offending column index.
        column: usize,
        /// Aggregate keyword.
        agg: &'static str,
    },
    /// Numeric aggregate saw a NaN input (malformed float cell or
    /// NaN-parsing text); folding with `f64::min`/`f64::max` would
    /// silently drop it, so the executor refuses instead.
    NanInAggregate {
        /// Offending column index.
        column: usize,
        /// Aggregate keyword.
        agg: &'static str,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BadColumn(c) => write!(f, "column index {c} out of range"),
            ExecError::NonNumericAggregate { column, agg } => {
                write!(f, "{agg} over non-numeric column {column}")
            }
            ExecError::NanInAggregate { column, agg } => {
                write!(f, "{agg} over column {column} with NaN input")
            }
        }
    }
}

impl std::error::Error for ExecError {}

fn matches(cell: &Value, op: CmpOp, lit: &PreparedLiteral) -> bool {
    match lit.compare(cell) {
        None => false,
        Some(ord) => match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Ge => ord != Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
        },
    }
}

/// Executes a query against a table.
///
/// Aggregate semantics follow SQL: `COUNT(col)` counts non-NULL cells
/// only, numeric aggregates skip NULL cells (an empty or all-NULL
/// selection aggregates to `NULL`, never an error), and numeric
/// aggregates refuse NaN inputs ([`ExecError::NanInAggregate`]) rather
/// than silently dropping them.
///
/// Each condition's literal is prepared once per query
/// ([`PreparedLiteral`]), and the scan reads whole columns, so a row costs
/// only its cells' side of [`Value::compare`].
pub fn execute(table: &Table, query: &Query) -> Result<ResultSet, ExecError> {
    let _t = nlidb_trace::span("storage.execute");
    let ncols = table.num_cols();
    if query.select_col >= ncols {
        return Err(ExecError::BadColumn(query.select_col));
    }
    for c in &query.conds {
        if c.col >= ncols {
            return Err(ExecError::BadColumn(c.col));
        }
    }
    let conds: Vec<(&[Value], CmpOp, PreparedLiteral)> = query
        .conds
        .iter()
        .map(|c| (table.column_values(c.col), c.op, PreparedLiteral::new(&c.value)))
        .collect();
    let mut selected: Vec<&Value> = Vec::new();
    let mut conds_evaluated: u64 = 0;
    'rows: for (r, cell) in table.column_values(query.select_col).iter().enumerate() {
        for (column, op, lit) in &conds {
            conds_evaluated += 1;
            match column.get(r) {
                Some(v) if matches(v, *op, lit) => {}
                _ => continue 'rows,
            }
        }
        selected.push(cell);
    }
    if nlidb_trace::enabled() {
        nlidb_trace::count("storage.queries", 1);
        nlidb_trace::count("storage.rows_scanned", table.num_rows() as u64);
        nlidb_trace::count("storage.conditions_evaluated", conds_evaluated);
        nlidb_trace::count("storage.rows_selected", selected.len() as u64);
    }
    let values = match query.agg {
        Agg::None => selected.into_iter().cloned().collect(),
        // SQL `COUNT(col)` excludes NULLs.
        Agg::Count => vec![Value::Int(
            selected.iter().filter(|v| !matches!(**v, Value::Null)).count() as i64,
        )],
        agg @ (Agg::Min | Agg::Max | Agg::Sum | Agg::Avg) => {
            // SQL numeric aggregates skip NULL cells (like `COUNT(col)`
            // above); only *non-NULL* non-numeric cells are an error. An
            // all-NULL selection therefore aggregates to NULL — an `Ok`
            // result, distinguishable from `NonNumericAggregate`.
            let non_null: Vec<&&Value> =
                selected.iter().filter(|v| !matches!(***v, Value::Null)).collect();
            let nums: Vec<f64> = non_null.iter().filter_map(|v| v.as_number()).collect();
            if nums.len() < non_null.len() {
                return Err(ExecError::NonNumericAggregate {
                    column: query.select_col,
                    agg: agg.keyword(),
                });
            }
            if nums.iter().any(|n| n.is_nan()) {
                return Err(ExecError::NanInAggregate {
                    column: query.select_col,
                    agg: agg.keyword(),
                });
            }
            if nums.is_empty() {
                vec![Value::Null]
            } else {
                let v = match agg {
                    Agg::Min => nums.iter().cloned().fold(f64::INFINITY, f64::min),
                    Agg::Max => nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                    Agg::Sum => nums.iter().sum(),
                    // The outer arm binds only the four numeric
                    // aggregates, so this covers exactly `Avg`.
                    _ => nums.iter().sum::<f64>() / nums.len() as f64,
                };
                vec![Value::Float(v)]
            }
        }
    };
    Ok(ResultSet { values })
}

/// Execution-accuracy predicate: both queries execute and agree, treating
/// any execution error as disagreement unless both fail identically.
pub fn execution_match(table: &Table, predicted: &Query, gold: &Query) -> bool {
    match (execute(table, predicted), execute(table, gold)) {
        (Ok(a), Ok(b)) => a.same_as(&b),
        // Two failures only agree when they are the *same* failure;
        // counting any error pair as a match inflates `Acc_ex`.
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use nlidb_sqlir::Literal;

    fn county_table() -> Table {
        // Figure 1(b) of the paper.
        let schema = Schema::new(vec![
            Column::new("County", DataType::Text),
            Column::new("English Name", DataType::Text),
            Column::new("Irish Name", DataType::Text),
            Column::new("Population", DataType::Int),
            Column::new("Irish Speakers", DataType::Text),
        ]);
        let mut t = Table::new("counties", schema);
        t.push_row(vec![
            Value::Text("Mayo".into()),
            Value::Text("Carrowteige".into()),
            Value::Text("Ceathru Thaidhg".into()),
            Value::Int(356),
            Value::Text("64%".into()),
        ]);
        t.push_row(vec![
            Value::Text("Galway".into()),
            Value::Text("Aran Islands".into()),
            Value::Text("Oileain Arann".into()),
            Value::Int(1225),
            Value::Text("79%".into()),
        ]);
        t
    }

    #[test]
    fn fig1d_query_executes() {
        // SELECT Population WHERE County = "Mayo" AND English_Name = "Carrowteige"
        let q = Query::select(3)
            .and_where(0, CmpOp::Eq, Literal::Text("Mayo".into()))
            .and_where(1, CmpOp::Eq, Literal::Text("Carrowteige".into()));
        let rs = execute(&county_table(), &q).unwrap();
        assert_eq!(rs.values, vec![Value::Int(356)]);
    }

    #[test]
    fn no_match_returns_empty() {
        let q = Query::select(3).and_where(0, CmpOp::Eq, Literal::Text("Kerry".into()));
        let rs = execute(&county_table(), &q).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn count_aggregate() {
        let q = Query::select(0).with_agg(Agg::Count);
        let rs = execute(&county_table(), &q).unwrap();
        assert_eq!(rs.values, vec![Value::Int(2)]);
    }

    #[test]
    fn numeric_aggregates() {
        let t = county_table();
        for (agg, expected) in [
            (Agg::Min, 356.0),
            (Agg::Max, 1225.0),
            (Agg::Sum, 1581.0),
            (Agg::Avg, 790.5),
        ] {
            let q = Query::select(3).with_agg(agg);
            let rs = execute(&t, &q).unwrap();
            assert_eq!(rs.values, vec![Value::Float(expected)], "{agg:?}");
        }
    }

    #[test]
    fn aggregate_over_empty_selection_is_null() {
        let q = Query::select(3)
            .with_agg(Agg::Max)
            .and_where(0, CmpOp::Eq, Literal::Text("Kerry".into()));
        let rs = execute(&county_table(), &q).unwrap();
        assert_eq!(rs.values, vec![Value::Null]);
    }

    #[test]
    fn count_works_on_text_columns() {
        let q = Query::select(0).with_agg(Agg::Count);
        assert!(execute(&county_table(), &q).is_ok());
    }

    #[test]
    fn sum_over_text_column_errors() {
        let q = Query::select(0).with_agg(Agg::Sum);
        assert_eq!(
            execute(&county_table(), &q),
            Err(ExecError::NonNumericAggregate { column: 0, agg: "SUM" })
        );
    }

    #[test]
    fn bad_column_errors() {
        let q = Query::select(99);
        assert_eq!(execute(&county_table(), &q), Err(ExecError::BadColumn(99)));
    }

    #[test]
    fn comparison_operators() {
        let t = county_table();
        let cases = [
            (CmpOp::Gt, 400.0, 1),
            (CmpOp::Lt, 400.0, 1),
            (CmpOp::Ge, 356.0, 2),
            (CmpOp::Le, 356.0, 1),
            (CmpOp::Ne, 356.0, 1),
            (CmpOp::Eq, 356.0, 1),
        ];
        for (op, val, count) in cases {
            let q = Query::select(0).and_where(3, op, Literal::Number(val));
            let rs = execute(&t, &q).unwrap();
            assert_eq!(rs.values.len(), count, "{op:?} {val}");
        }
    }

    #[test]
    fn result_set_equality_is_order_insensitive() {
        let a = ResultSet { values: vec![Value::Int(1), Value::Int(2)] };
        let b = ResultSet { values: vec![Value::Int(2), Value::Int(1)] };
        let c = ResultSet { values: vec![Value::Int(2)] };
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
    }

    #[test]
    fn result_set_equality_crosses_value_types() {
        let a = ResultSet { values: vec![Value::Int(356)] };
        let b = ResultSet { values: vec![Value::Float(356.0)] };
        assert!(a.same_as(&b));
    }

    /// Rows with a NULL score: ("a", 1), ("b", NULL), ("c", 3).
    fn null_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("Score", DataType::Int),
        ]);
        let mut t = Table::new("scores", schema);
        t.push_row(vec![Value::Text("a".into()), Value::Int(1)]);
        t.push_row(vec![Value::Text("b".into()), Value::Null]);
        t.push_row(vec![Value::Text("c".into()), Value::Int(3)]);
        t
    }

    #[test]
    fn count_excludes_null_cells() {
        let t = null_table();
        // COUNT(Score): the NULL cell must not be counted.
        let q = Query::select(1).with_agg(Agg::Count);
        assert_eq!(execute(&t, &q).unwrap().values, vec![Value::Int(2)]);
        // COUNT(Name): no NULLs, all three rows count.
        let q = Query::select(0).with_agg(Agg::Count);
        assert_eq!(execute(&t, &q).unwrap().values, vec![Value::Int(3)]);
    }

    #[test]
    fn count_over_all_null_selection_is_zero() {
        let q = Query::select(1)
            .with_agg(Agg::Count)
            .and_where(0, CmpOp::Eq, Literal::Text("b".into()));
        assert_eq!(execute(&null_table(), &q).unwrap().values, vec![Value::Int(0)]);
    }

    #[test]
    fn numeric_aggregates_skip_null_cells() {
        // Regression: NULL cells used to read as "non-numeric" and turn
        // SUM/MIN/MAX/AVG over a nullable column into
        // `NonNumericAggregate`. SQL semantics skip them instead.
        let t = null_table();
        for (agg, expected) in [
            (Agg::Min, 1.0),
            (Agg::Max, 3.0),
            (Agg::Sum, 4.0),
            (Agg::Avg, 2.0),
        ] {
            let q = Query::select(1).with_agg(agg);
            assert_eq!(
                execute(&t, &q).unwrap().values,
                vec![Value::Float(expected)],
                "{agg:?} must skip the NULL cell"
            );
        }
    }

    #[test]
    fn all_null_selection_aggregates_to_null_not_error() {
        // The empty-vs-error distinction the decode guide relies on: an
        // all-NULL condition column is a *vacuous* Ok, never ExecError.
        let t = null_table();
        let q = Query::select(1)
            .with_agg(Agg::Sum)
            .and_where(0, CmpOp::Eq, Literal::Text("b".into()));
        let rs = execute(&t, &q).unwrap();
        assert_eq!(rs.values, vec![Value::Null]);
        assert!(rs.is_vacuous());
        // A fully-NULL column with no condition behaves the same.
        let schema = Schema::new(vec![Column::new("X", DataType::Int)]);
        let mut nulls = Table::new("nulls", schema);
        nulls.push_row(vec![Value::Null]);
        nulls.push_row(vec![Value::Null]);
        for agg in [Agg::Min, Agg::Max, Agg::Sum, Agg::Avg] {
            let q = Query::select(0).with_agg(agg);
            let rs = execute(&nulls, &q).unwrap();
            assert_eq!(rs.values, vec![Value::Null], "{agg:?}");
            assert!(rs.is_vacuous(), "{agg:?}");
        }
        // COUNT over the same column is a real zero, not vacuous.
        let q = Query::select(0).with_agg(Agg::Count);
        let rs = execute(&nulls, &q).unwrap();
        assert_eq!(rs.values, vec![Value::Int(0)]);
        assert!(!rs.is_vacuous(), "COUNT = 0 is an answer, not vacuity");
    }

    #[test]
    fn empty_table_executes_ok_and_is_vacuous_not_error() {
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("Score", DataType::Int),
        ]);
        let t = Table::new("empty", schema);
        // Plain projection: empty result set, Ok.
        let rs = execute(&t, &Query::select(0)).unwrap();
        assert!(rs.is_empty() && rs.is_vacuous());
        // Numeric aggregate over no rows: NULL, Ok, vacuous.
        let rs = execute(&t, &Query::select(1).with_agg(Agg::Sum)).unwrap();
        assert_eq!(rs.values, vec![Value::Null]);
        assert!(rs.is_vacuous());
        // COUNT over the empty table returns 0 — a real answer the
        // guide must never prune.
        let rs = execute(&t, &Query::select(1).with_agg(Agg::Count)).unwrap();
        assert_eq!(rs.values, vec![Value::Int(0)]);
        assert!(!rs.is_vacuous());
        // Out-of-schema columns still error: vacuity never swallows
        // genuine ExecError cases.
        assert_eq!(execute(&t, &Query::select(9)), Err(ExecError::BadColumn(9)));
    }

    #[test]
    fn vacuous_classification_on_nonempty_results() {
        assert!(ResultSet { values: vec![] }.is_vacuous());
        assert!(ResultSet { values: vec![Value::Null] }.is_vacuous());
        assert!(ResultSet { values: vec![Value::Null, Value::Null] }.is_vacuous());
        assert!(!ResultSet { values: vec![Value::Int(0)] }.is_vacuous());
        assert!(!ResultSet { values: vec![Value::Null, Value::Int(1)] }.is_vacuous());
        assert!(!ResultSet { values: vec![Value::Text(String::new())] }.is_vacuous());
    }

    #[test]
    fn min_max_surface_nan_instead_of_dropping_it() {
        // Regression: folding from ±INFINITY with f64::min/f64::max keeps
        // the non-NaN operand, so a malformed Float(NaN) cell used to
        // vanish silently from MIN/MAX results.
        let schema = Schema::new(vec![Column::new("X", DataType::Float)]);
        let mut t = Table::new("nan", schema);
        t.push_row(vec![Value::Float(2.0)]);
        t.push_row(vec![Value::Float(f64::NAN)]);
        for agg in [Agg::Min, Agg::Max, Agg::Sum, Agg::Avg] {
            let q = Query::select(0).with_agg(agg);
            assert_eq!(
                execute(&t, &q),
                Err(ExecError::NanInAggregate { column: 0, agg: agg.keyword() }),
                "{agg:?} must refuse NaN input"
            );
        }
        // NaN can also arrive through NaN-parsing text cells.
        let schema = Schema::new(vec![Column::new("X", DataType::Text)]);
        let mut t = Table::new("nan_text", schema);
        t.push_row(vec![Value::Text("1.5".into())]);
        t.push_row(vec![Value::Text("NaN".into())]);
        let q = Query::select(0).with_agg(Agg::Min);
        assert_eq!(
            execute(&t, &q),
            Err(ExecError::NanInAggregate { column: 0, agg: "MIN" })
        );
    }

    #[test]
    fn null_cells_match_no_condition_operator() {
        // Pins the three-valued-logic-like behavior of `matches`: a NULL
        // cell compares as "unknown", so even negative/inclusive operators
        // (Ne, Ge, Le) must not select the row.
        let t = null_table();
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Gt, CmpOp::Lt, CmpOp::Ge, CmpOp::Le] {
            let q = Query::select(0).and_where(1, op, Literal::Number(2.0));
            let rs = execute(&t, &q).unwrap();
            assert!(
                !rs.values.contains(&Value::Text("b".into())),
                "{op:?} must not match the NULL row"
            );
        }
        // Sanity: Ne still selects the genuinely unequal non-NULL rows.
        let q = Query::select(0).and_where(1, CmpOp::Ne, Literal::Number(1.0));
        assert_eq!(execute(&t, &q).unwrap().values, vec![Value::Text("c".into())]);
    }

    #[test]
    fn execution_match_predicate() {
        let t = county_table();
        // Different queries, same result: condition on a unique value vs
        // equivalent condition by another unique key of the same row.
        let q1 = Query::select(3).and_where(0, CmpOp::Eq, Literal::Text("Mayo".into()));
        let q2 = Query::select(3).and_where(1, CmpOp::Eq, Literal::Text("Carrowteige".into()));
        assert!(execution_match(&t, &q1, &q2));
        let q3 = Query::select(3).and_where(0, CmpOp::Eq, Literal::Text("Galway".into()));
        assert!(!execution_match(&t, &q1, &q3));
    }
}
