//! # nlidb-text
//!
//! Text-processing substrate for the NLIDB reproduction:
//!
//! - [`tokenize`](mod@tokenize) — word tokenizer, word vocabulary, fixed char alphabet.
//! - [`distance`] — edit distance / similarity for context-free matching.
//! - [`stopwords`] — the §IV-D value-span stop-word filter.
//! - [`embedding`] — deterministic synthetic "pre-trained" embeddings
//!   standing in for GloVe (see DESIGN.md substitution table).
//! - [`lexicon`] — §II metadata: synonym clusters, mention phrases `P_c`,
//!   describe expressions `D_c`.
//! - [`deptree`] — rule-based pseudo-dependency parse with the tree
//!   distance used by §IV-E mention resolution.

#![warn(missing_docs)]

pub mod deptree;
pub mod distance;
pub mod embedding;
pub mod lexicon;
pub mod stopwords;
pub mod tokenize;

pub use deptree::DepTree;
pub use distance::{edit_distance, edit_similarity, normalized_edit_distance, token_jaccard};
pub use embedding::{EmbeddingSpace, WordVectors};
pub use lexicon::Lexicon;
pub use stopwords::{is_stop_word, span_has_stop_word, STOP_WORDS};
pub use tokenize::{detokenize, special, tokenize, CharVocab, Vocab};
