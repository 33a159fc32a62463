//! Column-major in-memory tables.

use nlidb_json::{FromJson, Json, JsonError, ToJson};

use crate::schema::{DataType, Schema};
use crate::value::Value;

/// An in-memory relational table (column-major storage).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    schema: Schema,
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let ncols = schema.len();
        Table { name: name.into(), schema, columns: vec![Vec::new(); ncols], rows: 0 }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.schema.len()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width does not match the schema, or a value's
    /// type conflicts with the column type (Null is always allowed; text
    /// that parses numerically is accepted into numeric columns).
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.len(), "row width mismatch");
        for (i, v) in row.iter().enumerate() {
            let dt = self.schema.column(i).dtype;
            let ok = match (dt, v) {
                (_, Value::Null) => true,
                (DataType::Text, Value::Text(_)) => true,
                (DataType::Int, Value::Int(_)) => true,
                (DataType::Float, Value::Float(_) | Value::Int(_)) => true,
                (DataType::Int | DataType::Float, Value::Text(t)) => {
                    t.trim().parse::<f64>().is_ok()
                }
                _ => false,
            };
            assert!(ok, "value {v:?} incompatible with column {} ({dt:?})", self.schema.column(i).name);
        }
        for (col, v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
        self.rows += 1;
    }

    /// Cell accessor.
    pub fn cell(&self, row: usize, col: usize) -> &Value {
        &self.columns[col][row]
    }

    /// All values of one column, row order; empty for a column outside
    /// the schema.
    pub fn column_values(&self, col: usize) -> &[Value] {
        self.columns.get(col).map_or(&[], Vec::as_slice)
    }

    /// Iterates rows as vectors of references.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<&Value>> + '_ {
        (0..self.rows).map(move |r| self.columns.iter().map(|c| &c[r]).collect())
    }

    /// Column names (for `nlidb-sqlir` interop).
    pub fn column_names(&self) -> Vec<String> {
        self.schema.column_names()
    }

    /// Deterministic 64-bit content fingerprint of the table: FNV-1a over
    /// the name, the schema (column names and types), and every cell in
    /// column-major order, with length/variant framing so distinct
    /// contents cannot collide by concatenation ambiguity. Two tables
    /// fingerprint equal iff they have equal name, schema, and cells —
    /// which is exactly when every pipeline stage treats them the same,
    /// so the value is usable as a cache key for per-table work.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.name);
        h.write_usize(self.schema.len());
        for col in self.schema.columns() {
            h.write_str(&col.name);
            h.write_u8(match col.dtype {
                DataType::Text => 0,
                DataType::Int => 1,
                DataType::Float => 2,
            });
        }
        h.write_usize(self.rows);
        for col in &self.columns {
            for v in col {
                match v {
                    Value::Null => h.write_u8(0),
                    Value::Int(i) => {
                        h.write_u8(1);
                        h.write_bytes(&i.to_le_bytes());
                    }
                    Value::Float(f) => {
                        h.write_u8(2);
                        h.write_bytes(&f.to_bits().to_le_bytes());
                    }
                    Value::Text(t) => {
                        h.write_u8(3);
                        h.write_str(t);
                    }
                }
            }
        }
        h.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher for [`Table::fingerprint`]. In-tree so
/// the fingerprint is stable across Rust versions (unlike `DefaultHasher`,
/// whose algorithm is unspecified).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write_bytes(&[b]);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_bytes(&(n as u64).to_le_bytes());
    }

    /// Length-prefixed so `("ab","c")` and `("a","bc")` hash differently.
    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl ToJson for Table {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("schema", self.schema.to_json()),
            ("columns", self.columns.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl FromJson for Table {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let table = Table {
            name: j.req("name")?,
            schema: j.req("schema")?,
            columns: j.req("columns")?,
            rows: j.req("rows")?,
        };
        if table.columns.len() != table.schema.len()
            || table.columns.iter().any(|c| c.len() != table.rows)
        {
            return Err(JsonError::new(format!(
                "table '{}' columns do not match schema/row count",
                table.name
            )));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn film_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("Film Name", DataType::Text),
            Column::new("Director", DataType::Text),
            Column::new("Year", DataType::Int),
        ]);
        let mut t = Table::new("films", schema);
        t.push_row(vec![
            Value::Text("Chopin: Desire for Love".into()),
            Value::Text("Jerzy Antczak".into()),
            Value::Int(2002),
        ]);
        t.push_row(vec![
            Value::Text("27 Stolen Kisses".into()),
            Value::Text("Nana Djordjadze".into()),
            Value::Int(2000),
        ]);
        t
    }

    #[test]
    fn shapes_and_access() {
        let t = film_table();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 3);
        assert_eq!(t.cell(1, 1), &Value::Text("Nana Djordjadze".into()));
        assert_eq!(t.column_values(2), &[Value::Int(2002), Value::Int(2000)]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = film_table();
        t.push_row(vec![Value::Null]);
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn type_mismatch_panics() {
        let mut t = film_table();
        t.push_row(vec![Value::Text("x".into()), Value::Text("y".into()), Value::Text("zz".into())]);
    }

    #[test]
    fn numeric_text_accepted_into_int_column() {
        let mut t = film_table();
        t.push_row(vec![Value::Text("A".into()), Value::Text("B".into()), Value::Text("1999".into())]);
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn iter_rows_matches_cells() {
        let t = film_table();
        let rows: Vec<Vec<&Value>> = t.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][2], &Value::Int(2002));
    }

    #[test]
    fn null_is_always_accepted() {
        let mut t = film_table();
        t.push_row(vec![Value::Null, Value::Null, Value::Null]);
        assert_eq!(t.num_rows(), 3);
    }

    #[test]
    fn out_of_range_column_reads_empty() {
        assert!(film_table().column_values(3).is_empty());
    }

    #[test]
    fn decoded_columns_sit_at_exact_capacity() {
        let schema = Schema::new(vec![
            Column::new("Name", DataType::Text),
            Column::new("Year", DataType::Int),
        ]);
        let mut t = Table::new("t", schema);
        for r in 0..1500 {
            t.push_row(vec![Value::Text(format!("row {r}")), Value::Int(r)]);
        }
        let decoded = Table::from_json(&t.to_json()).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(decoded.columns.capacity(), 2);
        for col in &decoded.columns {
            assert_eq!(col.capacity(), decoded.num_rows());
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = film_table();
        let b = film_table();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content, equal fingerprint");
        assert_eq!(a.fingerprint(), a.clone().fingerprint());

        // Any content change moves the fingerprint.
        let mut renamed = film_table();
        renamed.name = "films2".into();
        assert_ne!(a.fingerprint(), renamed.fingerprint());

        let mut extra_row = film_table();
        extra_row.push_row(vec![Value::Null, Value::Null, Value::Null]);
        assert_ne!(a.fingerprint(), extra_row.fingerprint());

        let schema = Schema::new(vec![
            Column::new("Film Name", DataType::Text),
            Column::new("Director", DataType::Text),
            Column::new("Year", DataType::Float),
        ]);
        let retyped = Table::new("films", schema);
        let base = Table::new("films", film_table().schema().clone());
        assert_ne!(base.fingerprint(), retyped.fingerprint(), "dtype is part of the hash");
    }

    #[test]
    fn fingerprint_distinguishes_value_variants_and_framing() {
        // Int(2002) vs Text("2002"): same canonical text, different cells.
        let schema = Schema::new(vec![Column::new("Year", DataType::Int)]);
        let mut int_t = Table::new("t", schema.clone());
        int_t.push_row(vec![Value::Int(2002)]);
        let mut text_t = Table::new("t", schema);
        text_t.push_row(vec![Value::Text("2002".into())]);
        assert_ne!(int_t.fingerprint(), text_t.fingerprint());

        // Length framing: ("ab","c") vs ("a","bc") column names differ.
        let s1 = Schema::new(vec![
            Column::new("ab", DataType::Text),
            Column::new("c", DataType::Text),
        ]);
        let s2 = Schema::new(vec![
            Column::new("a", DataType::Text),
            Column::new("bc", DataType::Text),
        ]);
        assert_ne!(Table::new("t", s1).fingerprint(), Table::new("t", s2).fingerprint());
    }
}
