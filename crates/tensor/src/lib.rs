//! # nlidb-tensor
//!
//! A deliberately small, auditable reverse-mode autograd library that powers
//! the neural components of the NLIDB reproduction (ICDE 2020, Wang et al.).
//!
//! Why build this instead of binding an existing framework: the paper's core
//! technique — the adversarial text method of §IV-C — reads *input-side*
//! gradients `dL/dE(w)` off a trained classifier. That requires a training
//! stack with first-class access to gradients of arbitrary interior nodes,
//! which mature Rust DL bindings do not expose cleanly; a ~1k-line tape
//! autograd covers everything the paper needs (LSTM/GRU cells, attention,
//! char-CNN, copy-mechanism decoding) while staying fully deterministic and
//! dependency-free.
//!
//! ## Layout
//! - [`tensor`]: dense row-major `f32` matrices.
//! - [`matmul`]: the matmul kernels behind [`Tensor::matmul`] — scalar
//!   reference and cache-blocked packed-B with runtime SIMD dispatch —
//!   both bitwise-identical per cell.
//! - [`math`]: the in-tree `tanh` ([`math::tanh`], [`math::tanh_slice`]),
//!   bit for bit equal to glibc 2.36's `tanhf`, vectorized behind the
//!   same SIMD dispatch.
//! - [`graph`]: the define-by-run tape ([`Graph`], [`NodeId`]) with forward
//!   ops and reverse-mode [`Graph::backward`].
//! - [`params`]: persistent named parameters ([`ParamStore`]).
//! - [`optim`]: Adam and global-norm gradient clipping.
//! - [`gradcheck`]: finite-difference verification utilities.
//! - [`pool`]: the deterministic scoped thread pool that fans out across
//!   independent items — minibatch examples, served tables, corpus shards
//!   (`NLIDB_THREADS` knob; parallel results are bitwise equal to serial).
//!   Tensor ops never use it: each runs on its caller's thread.
//! - [`rng`]: the workspace-wide seeded PRNG ([`Rng`], PCG32) behind every
//!   random draw in the reproduction.
//!
//! The autograd tape and the pool are instrumented with `nlidb-trace`
//! (per-`Op` forward/backward timings, pool task counters), active only
//! under `NLIDB_TRACE=1`; instrumentation never alters computation, so
//! results are byte-identical with tracing on or off.
//!
//! ## Example
//! ```
//! use nlidb_tensor::{Graph, ParamStore, Tensor, optim::Adam};
//!
//! let mut store = ParamStore::new();
//! let w = store.add("w", Tensor::row_vector(&[3.0]));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let wn = g.param(&store, w);
//!     let sq = g.mul(wn, wn);
//!     let loss = g.sum_all(sq);
//!     g.backward(loss);
//!     let grads = g.param_grads();
//!     opt.step(&mut store, &grads);
//! }
//! assert!(store.get(w).data()[0].abs() < 0.05);
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
pub mod graph;
pub mod math;
pub mod matmul;
pub mod optim;
pub mod params;
pub mod pool;
pub mod rng;
pub mod tensor;

pub use graph::{GateAct, Graph, NodeId};
pub use matmul::{matmul_kernel, set_matmul_kernel, MatmulKernel};
pub use params::{ParamId, ParamStore};
pub use rng::Rng;
pub use tensor::Tensor;
