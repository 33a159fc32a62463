//! # nlidb-neural
//!
//! Neural network layers built on [`nlidb_tensor`], providing every
//! architectural piece the paper's models need:
//!
//! - [`linear::Linear`] / [`linear::Mlp`] — affine layers and the §IV-D
//!   value-detection MLP shape.
//! - [`embedding::Embedding`] / [`embedding::CharCnn`] — the word embedder
//!   of §IV-B(i): pre-trained word vectors concatenated with a multi-width
//!   character convolution.
//! - [`rnn::Cell`] / [`rnn::run`] / [`rnn::Rnn`] — the one recurrence:
//!   a cell's step function, the only loop that steps a cell over a
//!   sequence, and the stacked, optionally bi-directional layer with a
//!   per-layer affine input. [`LstmCell`] builds the §IV-B(ii) LSTMs and
//!   [`GruCell`] the §V-B seq2seq encoder and decoder.
//! - [`attention::BahdanauAttention`] — additive attention used by both the
//!   §IV-B(iii) classifier head and the §V-B decoder (whose raw scores also
//!   feed the copy mechanism).
//! - [`dropout::dropout`] — inverted dropout.
//!
//! Layers register their parameters in a shared
//! [`nlidb_tensor::ParamStore`] under a caller-chosen prefix and are pure
//! functions of the graph thereafter, so models compose freely and
//! checkpointing is a single store serialization.

#![warn(missing_docs)]

pub mod attention;
pub mod dropout;
pub mod embedding;
pub mod gru;
pub mod linear;
pub mod lstm;
pub mod rnn;

pub use attention::{AttentionOut, BahdanauAttention};
pub use dropout::dropout;
pub use embedding::{CharCnn, Embedding};
pub use gru::GruCell;
pub use linear::{Activation, Linear, Mlp};
pub use lstm::LstmCell;
pub use rnn::{Cell, Rnn};
