//! # nlidb-storage
//!
//! The in-memory relational engine substrate:
//!
//! - [`schema`] / [`value`] / [`table`] — typed column-major tables.
//! - [`exec`] — WikiSQL-class query execution powering the paper's
//!   execution-accuracy metric (`Acc_ex`).
//! - [`stats`] — §II database statistics: O(1)-size per-column embedding
//!   centroids (`s_c`) consumed by the §IV-D value-detection classifier.
//! - [`csv`] — CSV loading and table rendering for the CLI.

#![warn(missing_docs)]

pub mod csv;
pub mod exec;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use csv::{render_table, table_from_csv, CsvError};
pub use exec::{execute, execution_match, ExecError, ResultSet};
pub use schema::{Column, DataType, Schema};
pub use stats::{ColumnStats, TableStats};
pub use table::Table;
pub use value::{CellKey, PreparedLiteral, Value};
