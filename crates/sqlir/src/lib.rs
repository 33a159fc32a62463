//! # nlidb-sqlir
//!
//! The SQL intermediate representation for the NLIDB reproduction:
//! WikiSQL-class single-table queries:
//! `SELECT <agg>(<col>) WHERE <col> <op> <val> AND ...`.
//!
//! - [`ast`] — [`Query`] / [`Cond`] / [`Agg`] / [`CmpOp`] / [`Literal`] and
//!   concrete-SQL rendering.
//! - [`parser`] — concrete-SQL parsing (round-trips with rendering).
//! - [`canonical`] — canonical forms plus the paper's `Acc_lf` and
//!   `Acc_qm` predicates.
//! - [`annotated`] — annotated SQL `s^a` with `c_i`/`v_i`/`g_i`
//!   placeholders, annotation maps, and the deterministic recovery step
//!   `s^a -> s` evaluated in Table III.

#![warn(missing_docs)]

pub mod annotated;
pub mod ast;
pub mod canonical;
pub mod parser;

pub use annotated::{annotate_query, recover, AnnTok, AnnotatedSql, AnnotationMap, RecoverError, Slot};
pub use ast::{canonical_tokens, Agg, CmpOp, Cond, Literal, Query};
pub use canonical::{canonicalize, logical_form_match, query_match, CanonicalQuery};
pub use parser::{parse_sql, ParseError};
