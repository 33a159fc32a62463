//! Property tests for the storage engine: executor semantics against a
//! brute-force reference implementation, and CSV round-trips.
//!
//! Cases are drawn from the workspace PRNG with fixed seeds, so failures
//! reproduce from the case index alone.

use nlidb_sqlir::{Agg, CmpOp, Literal, Query};
use nlidb_storage::{
    execute, render_table, table_from_csv, Column, DataType, PreparedLiteral, Schema, Table, Value,
};
use nlidb_tensor::Rng;

const CASES: u64 = 96;

fn case_rng(test_seed: u64, case: u64) -> Rng {
    Rng::seed_from_u64(test_seed.wrapping_mul(0x100000001b3) ^ case)
}

fn arb_table(rng: &mut Rng) -> Table {
    let ncols = rng.gen_range(2usize..6);
    let nrows = rng.gen_range(1usize..8);
    let schema =
        Schema::new((0..ncols).map(|c| Column::new(format!("C{c}"), DataType::Int)).collect());
    let mut t = Table::new("t", schema);
    for _ in 0..nrows {
        t.push_row((0..ncols).map(|_| Value::Int(rng.gen_range(-50i64..50))).collect());
    }
    t
}

/// Brute-force reference executor.
fn reference(table: &Table, q: &Query) -> Option<Vec<f64>> {
    let mut selected = Vec::new();
    'rows: for r in 0..table.num_rows() {
        for c in &q.conds {
            let cell = table.cell(r, c.col).as_number()?;
            let lit = c.value.as_number()?;
            let ok = match c.op {
                CmpOp::Eq => cell == lit,
                CmpOp::Ne => cell != lit,
                CmpOp::Gt => cell > lit,
                CmpOp::Lt => cell < lit,
                CmpOp::Ge => cell >= lit,
                CmpOp::Le => cell <= lit,
            };
            if !ok {
                continue 'rows;
            }
        }
        selected.push(table.cell(r, q.select_col).as_number()?);
    }
    Some(match q.agg {
        Agg::None => selected,
        Agg::Count => vec![selected.len() as f64],
        Agg::Sum => {
            // SQL semantics: SUM over an empty selection is NULL.
            if selected.is_empty() {
                return Some(vec![f64::NAN]);
            }
            vec![selected.iter().sum()]
        }
        Agg::Avg => {
            if selected.is_empty() {
                return Some(vec![f64::NAN]); // engine returns Null
            }
            vec![selected.iter().sum::<f64>() / selected.len() as f64]
        }
        Agg::Min => {
            if selected.is_empty() {
                return Some(vec![f64::NAN]);
            }
            vec![selected.iter().cloned().fold(f64::INFINITY, f64::min)]
        }
        Agg::Max => {
            if selected.is_empty() {
                return Some(vec![f64::NAN]);
            }
            vec![selected.iter().cloned().fold(f64::NEG_INFINITY, f64::max)]
        }
    })
}

#[test]
fn executor_matches_reference() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let table = arb_table(&mut rng);
        let agg_i = rng.gen_range(0usize..6);
        let sel = rng.gen_range(0usize..2);
        let cond_col = rng.gen_range(0usize..2);
        let op_i = rng.gen_range(0usize..6);
        let lit = rng.gen_range(-50i64..50);
        let q = Query::select(sel)
            .with_agg(Agg::ALL[agg_i])
            .and_where(cond_col, CmpOp::ALL[op_i], Literal::Number(lit as f64));
        let rs = execute(&table, &q).expect("all-int table executes everything");
        let expected = reference(&table, &q).expect("reference total on ints");
        let got: Vec<Option<f64>> = rs.values.iter().map(|v| v.as_number()).collect();
        if expected.len() == 1 && expected[0].is_nan() {
            // Aggregate over empty selection: engine encodes as Null.
            assert_eq!(rs.values.len(), 1, "case {case}");
            assert!(got[0].is_none(), "case {case}");
        } else {
            assert_eq!(got.len(), expected.len(), "case {case}");
            for (g, e) in got.iter().zip(&expected) {
                assert!((g.expect("numeric") - e).abs() < 1e-9, "case {case}");
            }
        }
    }
}

#[test]
fn csv_roundtrip_preserves_cells() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let table = arb_table(&mut rng);
        // Render to CSV text by hand and reload.
        let names = table.column_names();
        let mut csv = names.iter().map(|n| format!("{n}:int")).collect::<Vec<_>>().join(",");
        csv.push('\n');
        for r in 0..table.num_rows() {
            let row: Vec<String> =
                (0..table.num_cols()).map(|c| table.cell(r, c).to_string()).collect();
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let back = table_from_csv("t", &csv).expect("valid CSV");
        assert_eq!(back.num_rows(), table.num_rows(), "case {case}");
        for r in 0..table.num_rows() {
            for c in 0..table.num_cols() {
                assert_eq!(back.cell(r, c), table.cell(r, c), "case {case}");
            }
        }
    }
}

#[test]
fn render_never_panics() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let table = arb_table(&mut rng);
        let max_rows = rng.gen_range(0usize..10);
        let s = render_table(&table, max_rows);
        assert!(s.contains("C0"), "case {case}");
    }
}

/// Texts and numbers on every branch of `Value::compare`: case and
/// spacing variants, numeric text, `-0.0` beside `0.0`, and NaN.
const TEXTS: [&str; 12] =
    ["Mayo", "mayo", " MAYO ", "5", " 5 ", "5.0", "-0.0", "0", "NaN", "nan", "64%", ""];
const NUMBERS: [f64; 6] = [0.0, -0.0, f64::NAN, 2.5, 5.0, -3.0];

fn arb_literal(rng: &mut Rng) -> Literal {
    if rng.gen_bool(0.5) {
        Literal::Number(NUMBERS[rng.gen_range(0..NUMBERS.len())])
    } else {
        Literal::Text(TEXTS[rng.gen_range(0..TEXTS.len())].to_string())
    }
}

/// A cell for a `Float` column (numbers, numeric text, Null) or, when
/// `text`, a `Text` column (any of [`TEXTS`], Null).
fn arb_cell(rng: &mut Rng, text: bool) -> Value {
    let numeric_text: Vec<&str> =
        TEXTS.iter().copied().filter(|t| t.trim().parse::<f64>().is_ok()).collect();
    match rng.gen_range(0usize..4) {
        0 => Value::Null,
        _ if text => Value::Text(TEXTS[rng.gen_range(0..TEXTS.len())].to_string()),
        1 => Value::Int(rng.gen_range(-3i64..6)),
        2 => Value::Float(NUMBERS[rng.gen_range(0..NUMBERS.len())]),
        _ => Value::Text(numeric_text[rng.gen_range(0..numeric_text.len())].to_string()),
    }
}

#[test]
fn prepared_literals_compare_like_value_compare() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let lit = arb_literal(&mut rng);
        let prepared = PreparedLiteral::new(&lit);
        for _ in 0..24 {
            let text = rng.gen_bool(0.5);
            let cell = arb_cell(&mut rng, text);
            let want = cell.compare(&lit);
            assert_eq!(prepared.compare(&cell), want, "case {case}: {cell:?} vs {lit:?}");
        }
    }
}

#[test]
fn executor_filters_like_value_compare() {
    let schema = Schema::new(vec![
        Column::new("Name", DataType::Text),
        Column::new("Score", DataType::Float),
    ]);
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let mut table = Table::new("t", schema.clone());
        for _ in 0..rng.gen_range(1usize..24) {
            table.push_row(vec![arb_cell(&mut rng, true), arb_cell(&mut rng, false)]);
        }
        let mut q = Query::select(0);
        for _ in 0..rng.gen_range(1usize..3) {
            let col = rng.gen_range(0usize..2);
            q = q.and_where(col, CmpOp::ALL[rng.gen_range(0usize..6)], arb_literal(&mut rng));
        }
        let holds = |cell: &Value, op: CmpOp, lit: &Literal| match cell.compare(lit) {
            None => false,
            Some(ord) => match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Le => ord.is_le(),
            },
        };
        let expected: Vec<Value> = (0..table.num_rows())
            .filter(|&r| q.conds.iter().all(|c| holds(table.cell(r, c.col), c.op, &c.value)))
            .map(|r| table.cell(r, 0).clone())
            .collect();
        let got = execute(&table, &q).expect("in-range columns execute");
        assert_eq!(got.values, expected, "case {case}: {q:?}");
    }
}
