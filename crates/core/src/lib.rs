//! # nlidb-core
//!
//! The paper's contribution, end to end:
//!
//! - [`mention`] — §IV mention detection and resolution: context-free
//!   matchers, the Column Mention Binary Classifier (§IV-B), the
//!   adversarial FGM localization (§IV-C), the Value Detection Classifier
//!   (§IV-D), and dependency-tree resolution (§IV-E).
//! - [`annotate`] — §V-A annotation encodings (symbol appending /
//!   substitution, table-header encoding).
//! - [`seq2seq`] — §V-B GRU encoder/decoder with Bahdanau attention and
//!   the paper's additive copy mechanism; beam-search decoding.
//! - [`transformer`] — the Table II transformer ablation.
//! - [`train`] — the one training loop (`train::fit`) every model
//!   trains through, with example-level data parallelism (fixed
//!   sharding + ordered gradient reduction; thread-count independent
//!   results).
//! - [`pipeline`] — the [`pipeline::Nlidb`] facade: train / predict /
//!   recover.
//! - [`guide`] — execution-guided decoding: beam candidates are judged
//!   by recovering and executing them against the target table, with a
//!   deterministic repair walk through the ranked beam.
//! - [`metrics`] — `Acc_lf` / `Acc_qm` / `Acc_ex` and §VII-A1 mention
//!   accuracy.
//! - [`serve`] — batched inference: per-table context sharing, pool
//!   fan-out, and a deterministic bounded prediction cache, byte-identical
//!   to the per-example path.
//! - [`baselines`] — Seq2SQL-, SQLNet-, and TypeSQL-style comparators.

#![warn(missing_docs)]

pub mod annotate;
pub mod baselines;
pub mod checkpoint;
pub mod config;
pub mod embed_init;
pub mod guide;
pub mod mention;
pub mod metrics;
pub mod pipeline;
pub mod seq2seq;
pub mod serve;
pub mod train;
pub mod transformer;
pub mod vocab;

pub use annotate::{AnnotateConfig, Annotation, SymbolEncoding};
pub use config::ModelConfig;
pub use guide::{ExecutionGuide, GuideVerdict};
pub use mention::MentionDetector;
pub use metrics::{cond_col_val_accuracy, evaluate, EvalResult};
pub use pipeline::{Nlidb, NlidbOptions, TableContext};
pub use serve::{CacheTableStats, PredictionCache, ServeEngine, ServeRequest};
