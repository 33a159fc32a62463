//! Define-by-run reverse-mode autograd on a flat tape.
//!
//! A [`Graph`] is an arena of nodes created in topological order; every op
//! method immediately computes its forward value and records enough
//! information to run the backward pass. Calling [`Graph::backward`] on a
//! scalar loss walks the tape in reverse, accumulating gradients into every
//! node that (transitively) depends on a [`Graph::param`] or
//! [`Graph::input`] node. An operand that depends on neither gets no
//! delta, and backward does not compute one for it.
//!
//! `input` nodes exist specifically for the paper's adversarial text method
//! (§IV-C): the Fast Gradient Method needs `dL/dE(w)` for each *input*
//! embedding row, so word/char embeddings of the question are fed in as
//! gradient-tracked inputs and their gradients read back after `backward`.
//! On a [`Graph::frozen`] tape parameters bind without gradient tracking,
//! and [`Graph::track`] turns the embedding rows into such inputs, so a
//! backward computes those rows' gradients and no parameter gradient. On
//! a training tape ([`Graph::new`]) the rows already depend on the
//! embedding parameters and `track` adds nothing.
//!
//! One rule decides the mode: training tapes train, frozen tapes infer.
//! A frozen tape binds each parameter once per version of its
//! [`ParamStore`] (see [`crate::params`]), so an inference that runs many
//! steps or scores many columns on one tape copies each weight into it
//! once; a training tape pushes a tracked node per bind.
//!
//! ## Buffer arena
//!
//! Every forward value, backward temporary, and gradient buffer is drawn
//! from an internal free-list arena keyed by element count. Backward
//! temporaries and superseded gradients go back to the arena as soon as
//! they are spent, so one tape's later ops and later backward passes
//! reuse them. Recycling never changes values: a recycled buffer is either
//! fully overwritten or explicitly zeroed before use, so results are
//! bitwise identical to freshly allocated ones. A tape is built for one
//! loss or one inference and then dropped; no loop reuses a tape.

use nlidb_trace as trace;

use crate::math;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// Raw tape index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Activation applied by a fused GRU gate ([`Graph::fused_gate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateAct {
    /// Logistic sigmoid (reset/update gates).
    Sigmoid,
    /// Hyperbolic tangent (candidate state).
    Tanh,
}

/// The operation that produced a node, with the data needed for backward.
#[derive(Debug, Clone)]
enum Op {
    /// Constant leaf; gradients are not tracked.
    Leaf,
    /// Gradient-tracked leaf (model input for adversarial analysis).
    Input,
    /// Gradient-tracked leaf bound to a stored parameter (see `param_bindings`).
    Param,
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    /// `[n, d] + [1, d]` row broadcast.
    AddRow(NodeId, NodeId),
    Matmul(NodeId, NodeId),
    Transpose(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    Relu(NodeId),
    SoftmaxRows(NodeId),
    LogSoftmaxRows(NodeId),
    HCat(NodeId, NodeId),
    VCat(NodeId, NodeId),
    /// Rows `[a, b)` of the source.
    RowSlice(NodeId, usize, usize),
    /// Row gather (embedding lookup); duplicates accumulate.
    GatherRows(NodeId, Vec<usize>),
    SumAll(NodeId),
    MeanRows(NodeId),
    /// Sliding-window flatten: `[n, d] -> [n-k+1, k*d]`.
    Unfold(NodeId, usize),
    /// Elementwise `exp`.
    Exp(NodeId),
    /// Elementwise natural log.
    Ln(NodeId),
    /// Adds a constant scalar to every element (constant not needed for backward).
    AddScalar(NodeId),
    /// Mean negative log-likelihood over rows of log-probabilities.
    PickNll(NodeId, Vec<usize>),
    /// Mean binary cross-entropy with logits against fixed targets.
    BceWithLogits(NodeId, Tensor),
    /// Fused GRU gate: `act((x @ wx + h @ wh) + b)` in one tape node.
    FusedGate { x: NodeId, wx: NodeId, h: NodeId, wh: NodeId, b: NodeId, act: GateAct },
    /// Fused GRU state blend: `(1 - z) * n + z * h_prev` per cell.
    FusedGruCombine { z: NodeId, n: NodeId, h_prev: NodeId },
}

struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// Free-list buffer recycler keyed by exact element count.
///
/// Buffers handed out by [`Arena::scratch`] have unspecified contents and
/// must be fully overwritten by the caller; [`Arena::zeroed`] clears them
/// first. Each size class is capped so pathological shape churn cannot
/// grow the free lists without bound.
#[derive(Default)]
struct Arena {
    free: std::collections::BTreeMap<usize, Vec<Vec<f32>>>,
}

/// Maximum recycled buffers retained per size class.
const ARENA_MAX_PER_CLASS: usize = 64;

impl Arena {
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        self.free.get_mut(&len).and_then(Vec::pop)
    }

    /// A `[rows, cols]` tensor with unspecified contents; the caller must
    /// overwrite every element before the value is observed.
    fn scratch(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.take(rows * cols) {
            Some(buf) => Tensor::from_vec(rows, cols, buf),
            None => Tensor::zeros(rows, cols),
        }
    }

    /// A `[rows, cols]` tensor of zeros (recycled buffers are cleared).
    fn zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        match self.take(rows * cols) {
            Some(mut buf) => {
                buf.fill(0.0);
                Tensor::from_vec(rows, cols, buf)
            }
            None => Tensor::zeros(rows, cols),
        }
    }

    /// An empty `Vec` with capacity for `len` elements, for
    /// `extend_from_slice`-style builders.
    fn empty(&mut self, len: usize) -> Vec<f32> {
        match self.take(len) {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    fn give(&mut self, t: Tensor) {
        self.give_vec(t.into_vec());
    }

    fn give_vec(&mut self, v: Vec<f32>) {
        if v.is_empty() {
            return;
        }
        let class = self.free.entry(v.len()).or_default();
        if class.len() < ARENA_MAX_PER_CLASS {
            class.push(v);
        }
    }
}

/// A single forward/backward tape.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    grads: Vec<Option<Tensor>>,
    param_bindings: Vec<(NodeId, ParamId)>,
    arena: Arena,
    /// Parameters bind as constants (see [`Graph::frozen`]).
    frozen: bool,
    /// A frozen tape's bindings, keyed by `(store version, parameter)`.
    bound: std::collections::HashMap<(u64, ParamId), NodeId>,
}

impl Graph {
    /// Creates an empty training tape: [`Graph::param`] bindings are
    /// gradient-tracked and [`Graph::param_grads`] collects them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty frozen tape: [`Graph::param`] binds parameters
    /// without gradient tracking, so [`Graph::param_grads`] is always
    /// empty and a backward computes gradients only for nodes that depend
    /// on an [`Graph::input`] (or a [`Graph::track`]ed node). Forward
    /// values, and the gradients of those inputs, are bit-for-bit what a
    /// training tape computes for the same ops. Each parameter binds once
    /// (see [`Graph::param`]).
    pub fn frozen() -> Self {
        Graph { frozen: true, ..Self::default() }
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { value, op, requires_grad });
        id
    }

    fn rg(&self, id: NodeId) -> bool {
        self.nodes[id.0].requires_grad
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Gradient of the last `backward` loss w.r.t. a node, if tracked.
    pub fn grad(&self, id: NodeId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Constant leaf (no gradient).
    pub fn leaf(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Leaf, false)
    }

    /// Gradient-tracked input leaf (see module docs: FGM input gradients).
    pub fn input(&mut self, value: Tensor) -> NodeId {
        self.push(value, Op::Input, true)
    }

    /// Gradient-tracked view of `node`, for reading `dL/d node` after
    /// `backward`. A node that is already tracked (on a training tape,
    /// anything computed from a parameter) is returned as is, so the tape
    /// gains no node; otherwise a tracked [`Graph::input`] copy of its
    /// value is pushed, and callers build on the copy.
    pub fn track(&mut self, node: NodeId) -> NodeId {
        if self.rg(node) {
            return node;
        }
        let (rows, cols) = self.nodes[node.0].value.shape();
        let mut value = self.arena.scratch(rows, cols);
        value.data_mut().copy_from_slice(self.nodes[node.0].value.data());
        self.push(value, Op::Input, true)
    }

    /// Binds a stored parameter into this graph: a new gradient-tracked
    /// node per call on a training tape, a constant leaf on a
    /// [`Graph::frozen`] one. A frozen tape binds each parameter once: a
    /// second call for the same store version and id returns the first
    /// node and copies nothing.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let key = (store.version(), id);
        if let Some(&node) = self.bound.get(&key) {
            return node;
        }
        let src = store.get(id);
        let mut value = self.arena.scratch(src.rows(), src.cols());
        value.data_mut().copy_from_slice(src.data());
        if self.frozen {
            let node = self.push(value, Op::Leaf, false);
            self.bound.insert(key, node);
            return node;
        }
        let node = self.push(value, Op::Param, true);
        self.param_bindings.push((node, id));
        node
    }

    /// Elementwise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.add");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        self.nodes[a.0].value.zip_into(&self.nodes[b.0].value, |x, y| x + y, &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Add(a, b), rg)
    }

    /// Elementwise subtraction `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.sub");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        self.nodes[a.0].value.zip_into(&self.nodes[b.0].value, |x, y| x - y, &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Sub(a, b), rg)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.mul");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        self.nodes[a.0].value.zip_into(&self.nodes[b.0].value, |x, y| x * y, &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Mul(a, b), rg)
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        let _t = trace::span("graph.fwd.scale");
        let v = self.map_node(a, |x| x * s);
        let rg = self.rg(a);
        self.push(v, Op::Scale(a, s), rg)
    }

    /// Arena-backed elementwise map of a node's value.
    fn map_node(&mut self, a: NodeId, f: impl Fn(f32) -> f32) -> Tensor {
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        self.nodes[a.0].value.map_into(f, &mut v);
        v
    }

    /// Adds a `[1, d]` row vector to every row of a `[n, d]` matrix.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.add_row");
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert_eq!(self.nodes[row.0].value.rows(), 1, "add_row rhs must be [1, d]");
        assert_eq!(cols, self.nodes[row.0].value.cols(), "add_row width mismatch");
        let mut v = self.arena.scratch(rows, cols);
        for i in 0..rows {
            let m = self.nodes[a.0].value.row(i);
            let r = self.nodes[row.0].value.row(0);
            for ((o, &x), &b) in v.row_mut(i).iter_mut().zip(m).zip(r) {
                *o = x + b;
            }
        }
        let rg = self.rg(a) || self.rg(row);
        self.push(v, Op::AddRow(a, row), rg)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.matmul");
        let rows = self.nodes[a.0].value.rows();
        let cols = self.nodes[b.0].value.cols();
        let mut v = self.arena.zeroed(rows, cols);
        self.nodes[a.0].value.matmul_into(&self.nodes[b.0].value, &mut v);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::Matmul(a, b), rg)
    }

    /// Transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.transpose");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(cols, rows);
        self.nodes[a.0].value.transpose_into(&mut v);
        let rg = self.rg(a);
        self.push(v, Op::Transpose(a), rg)
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.sigmoid");
        let v = self.map_node(a, |x| 1.0 / (1.0 + (-x).exp()));
        let rg = self.rg(a);
        self.push(v, Op::Sigmoid(a), rg)
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.tanh");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        v.data_mut().copy_from_slice(self.nodes[a.0].value.data());
        math::tanh_slice(v.data_mut());
        let rg = self.rg(a);
        self.push(v, Op::Tanh(a), rg)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.relu");
        let v = self.map_node(a, |x| x.max(0.0));
        let rg = self.rg(a);
        self.push(v, Op::Relu(a), rg)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.exp");
        let v = self.map_node(a, f32::exp);
        let rg = self.rg(a);
        self.push(v, Op::Exp(a), rg)
    }

    /// Elementwise natural log (inputs must be positive).
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.ln");
        let v = self.map_node(a, f32::ln);
        let rg = self.rg(a);
        self.push(v, Op::Ln(a), rg)
    }

    /// Adds a constant scalar to every element.
    pub fn add_scalar(&mut self, a: NodeId, s: f32) -> NodeId {
        let _t = trace::span("graph.fwd.add_scalar");
        let v = self.map_node(a, |x| x + s);
        let rg = self.rg(a);
        self.push(v, Op::AddScalar(a), rg)
    }

    /// Row-wise softmax.
    ///
    /// A fully-masked row (every entry `-inf`) yields the uniform
    /// distribution `1/V` with zero gradient, instead of NaN-poisoning
    /// the row; see [`Graph::log_softmax_rows`] for the rationale.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.softmax_rows");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        softmax_rows_into(&self.nodes[a.0].value, &mut v);
        let rg = self.rg(a);
        self.push(v, Op::SoftmaxRows(a), rg)
    }

    /// Row-wise log-softmax (numerically stable).
    ///
    /// A fully-masked row (every entry `-inf`, as attention masking
    /// produces for an empty source) is pinned to the uniform log-prob
    /// `-ln V` rather than NaN: the naive `e - max` rewrite turns
    /// `-inf - -inf` into NaN, which then poisons every downstream value
    /// *and* every upstream gradient. The pinned row is a constant, so
    /// its backward contribution is zero.
    pub fn log_softmax_rows(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.log_softmax_rows");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut v = self.arena.scratch(rows, cols);
        for r in 0..rows {
            let src = self.nodes[a.0].value.row(r);
            let out = v.row_mut(r);
            let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            if max == f32::NEG_INFINITY {
                out.fill(-(cols as f32).ln());
                continue;
            }
            let lse = src.iter().map(|&e| (e - max).exp()).sum::<f32>().ln() + max;
            for (o, &e) in out.iter_mut().zip(src) {
                *o = e - lse;
            }
        }
        let rg = self.rg(a);
        self.push(v, Op::LogSoftmaxRows(a), rg)
    }

    /// Fused GRU gate: `act((x @ wx + h @ wh) + b)` as one tape node.
    ///
    /// Bitwise-identical (forward and backward) to the unfused
    /// composition `act(add(add(matmul(x, wx), matmul(h, wh)), b))` for
    /// single-row activations: the two matmuls run through the same
    /// kernels into separate buffers, the sum keeps the
    /// `(x@wx + h@wh) + b` association, and the backward pass accumulates
    /// into `b`, then `h`/`wh`, then `x`/`wx` — the reverse-tape order of
    /// the composition. `b` must be `[1, d]`; with multi-row activations
    /// it broadcasts row-wise and its gradient is the column sum.
    pub fn fused_gate(
        &mut self,
        x: NodeId,
        wx: NodeId,
        h: NodeId,
        wh: NodeId,
        b: NodeId,
        act: GateAct,
    ) -> NodeId {
        let _t = trace::span("graph.fwd.fused_gate");
        let rows = self.nodes[x.0].value.rows();
        let cols = self.nodes[wx.0].value.cols();
        assert_eq!(self.nodes[h.0].value.rows(), rows, "fused_gate row mismatch");
        assert_eq!(self.nodes[wh.0].value.cols(), cols, "fused_gate width mismatch");
        assert_eq!(self.nodes[b.0].value.shape(), (1, cols), "fused_gate bias must be [1, d]");
        let mut m1 = self.arena.zeroed(rows, cols);
        self.nodes[x.0].value.matmul_into(&self.nodes[wx.0].value, &mut m1);
        let mut m2 = self.arena.zeroed(rows, cols);
        self.nodes[h.0].value.matmul_into(&self.nodes[wh.0].value, &mut m2);
        let mut v = self.arena.scratch(rows, cols);
        for r in 0..rows {
            let bias = self.nodes[b.0].value.row(0);
            for (((o, &a1), &a2), &bj) in
                v.row_mut(r).iter_mut().zip(m1.row(r)).zip(m2.row(r)).zip(bias)
            {
                let lin = (a1 + a2) + bj;
                *o = match act {
                    GateAct::Sigmoid => 1.0 / (1.0 + (-lin).exp()),
                    GateAct::Tanh => lin,
                };
            }
        }
        if act == GateAct::Tanh {
            math::tanh_slice(v.data_mut());
        }
        self.arena.give(m1);
        self.arena.give(m2);
        let rg = self.rg(x) || self.rg(wx) || self.rg(h) || self.rg(wh) || self.rg(b);
        self.push(v, Op::FusedGate { x, wx, h, wh, b, act }, rg)
    }

    /// Fused GRU state blend: `(1 - z) * n + z * h_prev` per cell, as one
    /// tape node.
    ///
    /// Bitwise-identical (forward and backward) to the unfused
    /// composition `add(mul(sub(ones, z), n), mul(z, h_prev))`: the
    /// forward expression keeps the same association, and the backward
    /// pass lands the same per-slot accumulation order — `z` receives
    /// `g ⊙ h_prev` then `-(g ⊙ n)`, `h_prev` receives `g ⊙ z`, and `n`
    /// receives `g ⊙ (1 - z)`.
    pub fn fused_gru_combine(&mut self, z: NodeId, n: NodeId, h_prev: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.fused_gru_combine");
        let (rows, cols) = self.nodes[z.0].value.shape();
        assert_eq!(self.nodes[n.0].value.shape(), (rows, cols), "fused_gru_combine shape");
        assert_eq!(self.nodes[h_prev.0].value.shape(), (rows, cols), "fused_gru_combine shape");
        let mut v = self.arena.scratch(rows, cols);
        {
            let zv = self.nodes[z.0].value.data();
            let nv = self.nodes[n.0].value.data();
            let hv = self.nodes[h_prev.0].value.data();
            for (((o, &zi), &ni), &hi) in v.data_mut().iter_mut().zip(zv).zip(nv).zip(hv) {
                *o = ((1.0 - zi) * ni) + (zi * hi);
            }
        }
        let rg = self.rg(z) || self.rg(n) || self.rg(h_prev);
        self.push(v, Op::FusedGruCombine { z, n, h_prev }, rg)
    }

    /// Horizontal concatenation.
    pub fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.hcat");
        let (rows, ac) = self.nodes[a.0].value.shape();
        let bc = self.nodes[b.0].value.cols();
        assert_eq!(rows, self.nodes[b.0].value.rows(), "hcat row mismatch");
        let mut data = self.arena.empty(rows * (ac + bc));
        for r in 0..rows {
            data.extend_from_slice(self.nodes[a.0].value.row(r));
            data.extend_from_slice(self.nodes[b.0].value.row(r));
        }
        let v = Tensor::from_vec(rows, ac + bc, data);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::HCat(a, b), rg)
    }

    /// Vertical concatenation.
    pub fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.vcat");
        let (ar, cols) = self.nodes[a.0].value.shape();
        let br = self.nodes[b.0].value.rows();
        assert_eq!(cols, self.nodes[b.0].value.cols(), "vcat column mismatch");
        let mut data = self.arena.empty((ar + br) * cols);
        data.extend_from_slice(self.nodes[a.0].value.data());
        data.extend_from_slice(self.nodes[b.0].value.data());
        let v = Tensor::from_vec(ar + br, cols, data);
        let rg = self.rg(a) || self.rg(b);
        self.push(v, Op::VCat(a, b), rg)
    }

    /// Rows `[from, to)` of the source node.
    pub fn row_slice(&mut self, a: NodeId, from: usize, to: usize) -> NodeId {
        let _t = trace::span("graph.fwd.row_slice");
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert!(from <= to && to <= rows, "row_slice out of range");
        let mut data = self.arena.empty((to - from) * cols);
        for r in from..to {
            data.extend_from_slice(self.nodes[a.0].value.row(r));
        }
        let v = Tensor::from_vec(to - from, cols, data);
        let rg = self.rg(a);
        self.push(v, Op::RowSlice(a, from, to), rg)
    }

    /// Single row `r` as a `[1, d]` node.
    pub fn row(&mut self, a: NodeId, r: usize) -> NodeId {
        self.row_slice(a, r, r + 1)
    }

    /// Gathers rows by index (embedding lookup); indices may repeat.
    pub fn gather_rows(&mut self, a: NodeId, indices: Vec<usize>) -> NodeId {
        let _t = trace::span("graph.fwd.gather_rows");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let mut data = self.arena.empty(indices.len() * cols);
        for &i in &indices {
            assert!(i < rows, "gather index {i} out of {rows} rows");
            data.extend_from_slice(self.nodes[a.0].value.row(i));
        }
        let v = Tensor::from_vec(indices.len(), cols, data);
        let rg = self.rg(a);
        self.push(v, Op::GatherRows(a, indices), rg)
    }

    /// Sum of all elements as `[1, 1]`.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.sum_all");
        let v = Tensor::from_vec(1, 1, vec![self.value(a).sum()]);
        let rg = self.rg(a);
        self.push(v, Op::SumAll(a), rg)
    }

    /// Column-wise mean over rows: `[n, d] -> [1, d]`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let _t = trace::span("graph.fwd.mean_rows");
        let (rows, cols) = self.nodes[a.0].value.shape();
        let n = rows.max(1) as f32;
        let mut out = self.arena.zeroed(1, cols);
        for r in 0..rows {
            for (o, &x) in out.row_mut(0).iter_mut().zip(self.nodes[a.0].value.row(r)) {
                *o += x;
            }
        }
        for o in out.row_mut(0) {
            *o /= n;
        }
        let rg = self.rg(a);
        self.push(out, Op::MeanRows(a), rg)
    }

    /// Sliding-window flatten used by the char-CNN: `[n, d] -> [n-k+1, k*d]`.
    ///
    /// # Panics
    /// Panics if `n < k`; callers pad with zero rows first (§IV-B pads so
    /// that at least one slice is available).
    pub fn unfold(&mut self, a: NodeId, k: usize) -> NodeId {
        let _t = trace::span("graph.fwd.unfold");
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert!(k >= 1 && rows >= k, "unfold needs at least k={k} rows, got {rows}");
        let out_rows = rows - k + 1;
        let mut data = self.arena.empty(out_rows * k * cols);
        for r in 0..out_rows {
            for w in 0..k {
                data.extend_from_slice(self.nodes[a.0].value.row(r + w));
            }
        }
        let v = Tensor::from_vec(out_rows, k * cols, data);
        let rg = self.rg(a);
        self.push(v, Op::Unfold(a, k), rg)
    }

    /// Mean negative log-likelihood: input must be row-wise log-probabilities
    /// `[n, V]`; `targets[i]` selects the gold class of row `i`.
    pub fn pick_nll(&mut self, logp: NodeId, targets: Vec<usize>) -> NodeId {
        let _t = trace::span("graph.fwd.pick_nll");
        let src = self.value(logp);
        assert_eq!(src.rows(), targets.len(), "pick_nll target count mismatch");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < src.cols(), "pick_nll target {t} out of {} classes", src.cols());
            loss -= src.get(r, t);
        }
        loss /= targets.len().max(1) as f32;
        let rg = self.rg(logp);
        self.push(Tensor::from_vec(1, 1, vec![loss]), Op::PickNll(logp, targets), rg)
    }

    /// Mean binary cross-entropy with logits against fixed 0/1 targets
    /// (numerically stable formulation).
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: Tensor) -> NodeId {
        let _t = trace::span("graph.fwd.bce_with_logits");
        let x = self.value(logits);
        assert_eq!(x.shape(), targets.shape(), "bce shape mismatch");
        let n = x.len().max(1) as f32;
        let mut loss = 0.0;
        for (&xi, &ti) in x.data().iter().zip(targets.data()) {
            loss += xi.max(0.0) - xi * ti + (1.0 + (-xi.abs()).exp()).ln();
        }
        loss /= n;
        let rg = self.rg(logits);
        self.push(Tensor::from_vec(1, 1, vec![loss]), Op::BceWithLogits(logits, targets), rg)
    }

    /// Runs reverse-mode differentiation from a scalar `[1, 1]` loss node.
    ///
    /// After this call, [`Graph::grad`] returns gradients for every
    /// gradient-tracked node and [`Graph::param_grads`] collects them per
    /// parameter.
    ///
    /// A product's two deltas, `g·Bᵀ` for its left operand and `Aᵀ·g` for
    /// its right, go through [`Tensor::matmul_bt_into`] and
    /// [`Tensor::matmul_at_into`], which read the operands in place: no
    /// `Matmul` or `FusedGate` backward copies a weight or an activation
    /// into a transposed buffer. Each delta is bitwise what
    /// transpose-then-multiply gave.
    pub fn backward(&mut self, loss: NodeId) {
        let _t = trace::span("graph.backward");
        trace::record("graph.nodes_per_backward", self.nodes.len() as f64);
        trace::record("graph.param_bindings_per_backward", self.param_bindings.len() as f64);
        assert_eq!(self.value(loss).shape(), (1, 1), "backward requires a scalar loss");
        for slot in self.grads.drain(..) {
            if let Some(t) = slot {
                self.arena.give(t);
            }
        }
        self.grads.resize_with(self.nodes.len(), || None);
        self.grads[loss.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));
        // Split the borrow so backprop can match on `&nodes[i].op` without
        // cloning the op descriptor while mutating grads and the arena.
        let Graph { nodes, grads, arena, .. } = self;
        for i in (0..=loss.0).rev() {
            if !nodes[i].requires_grad {
                continue;
            }
            let Some(g) = grads[i].take() else { continue };
            backprop_node(nodes, grads, arena, i, &g);
            grads[i] = Some(g);
        }
    }

    /// Collects accumulated gradients per bound parameter, merging multiple
    /// bindings of the same parameter. Output order is the order in which
    /// each parameter was *first* bound (stable across calls), and the
    /// merge is ParamId-indexed so a graph with `n` bindings costs O(n),
    /// not O(n²).
    pub fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        use std::collections::hash_map::Entry;
        let mut merged: Vec<(ParamId, Tensor)> = Vec::with_capacity(self.param_bindings.len());
        let mut slot: std::collections::HashMap<ParamId, usize> =
            std::collections::HashMap::with_capacity(self.param_bindings.len());
        for &(node, pid) in &self.param_bindings {
            let Some(g) = self.grad(node) else { continue };
            match slot.entry(pid) {
                Entry::Occupied(e) => merged[*e.get()].1.add_scaled(g, 1.0),
                Entry::Vacant(e) => {
                    e.insert(merged.len());
                    merged.push((pid, g.clone()));
                }
            }
        }
        merged
    }
}

/// Accumulates an owned `delta` into a node's gradient slot, recycling the
/// buffer when the slot is already occupied.
fn accum_owned(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &mut Arena,
    id: NodeId,
    delta: Tensor,
) {
    if !nodes[id.0].requires_grad {
        arena.give(delta);
        return;
    }
    match &mut grads[id.0] {
        Some(g) => {
            g.add_scaled(&delta, 1.0);
            arena.give(delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Accumulates a borrowed `delta` into a node's gradient slot, copying into
/// an arena buffer only when the slot is empty.
fn accum_ref(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &mut Arena,
    id: NodeId,
    delta: &Tensor,
) {
    if !nodes[id.0].requires_grad {
        return;
    }
    match &mut grads[id.0] {
        Some(g) => g.add_scaled(delta, 1.0),
        slot @ None => {
            let mut copy = arena.scratch(delta.rows(), delta.cols());
            copy.data_mut().copy_from_slice(delta.data());
            *slot = Some(copy);
        }
    }
}

/// Pushes node `i`'s gradient `g` into its operands. A delta is computed
/// only for an operand that requires grad (`accum_*` would drop any other),
/// so a frozen tape skips the weight-side products and a training tape
/// skips only deltas it used to throw away. Unary ops need no check: their
/// node requires grad only when the operand does.
fn backprop_node(
    nodes: &[Node],
    grads: &mut [Option<Tensor>],
    arena: &mut Arena,
    i: usize,
    g: &Tensor,
) {
    let op = &nodes[i].op;
    let _t = trace::span(bwd_span_name(op));
    let rg = |id: NodeId| nodes[id.0].requires_grad;
    match op {
        Op::Leaf | Op::Input | Op::Param => {}
        &Op::Add(a, b) => {
            accum_ref(nodes, grads, arena, a, g);
            accum_ref(nodes, grads, arena, b, g);
        }
        &Op::Sub(a, b) => {
            accum_ref(nodes, grads, arena, a, g);
            if rg(b) {
                let mut neg = arena.scratch(g.rows(), g.cols());
                g.map_into(|x| -x, &mut neg);
                accum_owned(nodes, grads, arena, b, neg);
            }
        }
        &Op::Mul(a, b) => {
            if rg(a) {
                let mut da = arena.scratch(g.rows(), g.cols());
                g.zip_into(&nodes[b.0].value, |gi, bi| gi * bi, &mut da);
                accum_owned(nodes, grads, arena, a, da);
            }
            if rg(b) {
                let mut db = arena.scratch(g.rows(), g.cols());
                g.zip_into(&nodes[a.0].value, |gi, ai| gi * ai, &mut db);
                accum_owned(nodes, grads, arena, b, db);
            }
        }
        &Op::Scale(a, s) => {
            let mut da = arena.scratch(g.rows(), g.cols());
            g.map_into(|x| x * s, &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::AddRow(a, row) => {
            accum_ref(nodes, grads, arena, a, g);
            if rg(row) {
                let mut dr = arena.zeroed(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in dr.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                accum_owned(nodes, grads, arena, row, dr);
            }
        }
        &Op::Matmul(a, b) => {
            let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
            if rg(a) {
                let mut da = arena.scratch(g.rows(), bv.rows());
                g.matmul_bt_into(bv, &mut da);
                accum_owned(nodes, grads, arena, a, da);
            }
            if rg(b) {
                let mut db = arena.scratch(av.cols(), g.cols());
                av.matmul_at_into(g, &mut db);
                accum_owned(nodes, grads, arena, b, db);
            }
        }
        &Op::Transpose(a) => {
            let mut da = arena.scratch(g.cols(), g.rows());
            g.transpose_into(&mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Sigmoid(a) => {
            let y = &nodes[i].value;
            let mut da = arena.scratch(g.rows(), g.cols());
            g.zip_into(y, |gi, yi| gi * yi * (1.0 - yi), &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Tanh(a) => {
            let y = &nodes[i].value;
            let mut da = arena.scratch(g.rows(), g.cols());
            g.zip_into(y, |gi, yi| gi * (1.0 - yi * yi), &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Relu(a) => {
            let y = &nodes[i].value;
            let mut da = arena.scratch(g.rows(), g.cols());
            g.zip_into(y, |gi, yi| if yi > 0.0 { gi } else { 0.0 }, &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Exp(a) => {
            let y = &nodes[i].value;
            let mut da = arena.scratch(g.rows(), g.cols());
            g.zip_into(y, |gi, yi| gi * yi, &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Ln(a) => {
            let mut da = arena.scratch(g.rows(), g.cols());
            g.zip_into(&nodes[a.0].value, |gi, xi| gi / xi, &mut da);
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::AddScalar(a) => {
            accum_ref(nodes, grads, arena, a, g);
        }
        &Op::SoftmaxRows(a) => {
            let y = &nodes[i].value;
            let mut da = arena.scratch(y.rows(), y.cols());
            for r in 0..y.rows() {
                // A fully-masked input row was pinned to the uniform
                // constant in forward; its gradient is zero.
                if row_fully_masked(&nodes[a.0].value, r) {
                    da.row_mut(r).fill(0.0);
                    continue;
                }
                let dot: f32 = g.row(r).iter().zip(y.row(r)).map(|(&gi, &yi)| gi * yi).sum();
                for c in 0..y.cols() {
                    da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                }
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::LogSoftmaxRows(a) => {
            let logp = &nodes[i].value;
            let mut da = arena.scratch(logp.rows(), logp.cols());
            for r in 0..logp.rows() {
                // Pinned uniform rows (fully-masked input) are constants.
                if row_fully_masked(&nodes[a.0].value, r) {
                    da.row_mut(r).fill(0.0);
                    continue;
                }
                let gsum: f32 = g.row(r).iter().sum();
                for c in 0..logp.cols() {
                    da.set(r, c, g.get(r, c) - logp.get(r, c).exp() * gsum);
                }
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::HCat(a, b) => {
            let ac = nodes[a.0].value.cols();
            let rows = g.rows();
            if rg(a) {
                let mut da = arena.scratch(rows, ac);
                for r in 0..rows {
                    da.row_mut(r).copy_from_slice(&g.row(r)[..ac]);
                }
                accum_owned(nodes, grads, arena, a, da);
            }
            if rg(b) {
                let mut db = arena.scratch(rows, g.cols() - ac);
                for r in 0..rows {
                    db.row_mut(r).copy_from_slice(&g.row(r)[ac..]);
                }
                accum_owned(nodes, grads, arena, b, db);
            }
        }
        &Op::VCat(a, b) => {
            let ar = nodes[a.0].value.rows();
            let cols = g.cols();
            if rg(a) {
                let mut da = arena.scratch(ar, cols);
                da.data_mut().copy_from_slice(&g.data()[..ar * cols]);
                accum_owned(nodes, grads, arena, a, da);
            }
            if rg(b) {
                let mut db = arena.scratch(g.rows() - ar, cols);
                db.data_mut().copy_from_slice(&g.data()[ar * cols..]);
                accum_owned(nodes, grads, arena, b, db);
            }
        }
        &Op::RowSlice(a, from, _to) => {
            let (rows, cols) = nodes[a.0].value.shape();
            let mut da = arena.zeroed(rows, cols);
            for r in 0..g.rows() {
                da.row_mut(from + r).copy_from_slice(g.row(r));
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        Op::GatherRows(a, indices) => {
            let a = *a;
            let (rows, cols) = nodes[a.0].value.shape();
            let mut da = arena.zeroed(rows, cols);
            for (r, &idx) in indices.iter().enumerate() {
                for (o, &x) in da.row_mut(idx).iter_mut().zip(g.row(r)) {
                    *o += x;
                }
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::SumAll(a) => {
            let (rows, cols) = nodes[a.0].value.shape();
            let mut da = arena.scratch(rows, cols);
            da.data_mut().fill(g.scalar());
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::MeanRows(a) => {
            let (rows, cols) = nodes[a.0].value.shape();
            let n = rows.max(1) as f32;
            let mut da = arena.scratch(rows, cols);
            for r in 0..rows {
                for (o, &x) in da.row_mut(r).iter_mut().zip(g.row(0)) {
                    *o = x / n;
                }
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::Unfold(a, k) => {
            let (rows, d) = nodes[a.0].value.shape();
            let mut da = arena.zeroed(rows, d);
            for r in 0..g.rows() {
                for w in 0..k {
                    for c in 0..d {
                        let v = g.get(r, w * d + c);
                        da.set(r + w, c, da.get(r + w, c) + v);
                    }
                }
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        Op::PickNll(a, targets) => {
            let a = *a;
            let (rows, cols) = nodes[a.0].value.shape();
            let n = targets.len().max(1) as f32;
            let scale = g.scalar() / n;
            let mut da = arena.zeroed(rows, cols);
            for (r, &t) in targets.iter().enumerate() {
                da.set(r, t, -scale);
            }
            accum_owned(nodes, grads, arena, a, da);
        }
        Op::BceWithLogits(a, targets) => {
            let a = *a;
            let x = &nodes[a.0].value;
            let n = x.len().max(1) as f32;
            let scale = g.scalar() / n;
            let mut da = arena.scratch(x.rows(), x.cols());
            x.zip_into(
                targets,
                |xi, ti| {
                    let s = 1.0 / (1.0 + (-xi).exp());
                    scale * (s - ti)
                },
                &mut da,
            );
            accum_owned(nodes, grads, arena, a, da);
        }
        &Op::FusedGate { x, wx, h, wh, b, act } => {
            let y = &nodes[i].value;
            // dlin = g ⊙ act'(y), the gradient at the pre-activation.
            let mut dlin = arena.scratch(y.rows(), y.cols());
            match act {
                GateAct::Sigmoid => g.zip_into(y, |gi, yi| gi * yi * (1.0 - yi), &mut dlin),
                GateAct::Tanh => g.zip_into(y, |gi, yi| gi * (1.0 - yi * yi), &mut dlin),
            }
            // Reverse-tape order of the unfused composition: bias first,
            // then the h-branch matmul, then the x-branch matmul. The bias
            // gradient copies row 0 and accumulates the rest, so at one
            // row it is bit-for-bit the plain `add` gradient.
            if rg(b) {
                let mut db = arena.scratch(1, dlin.cols());
                db.row_mut(0).copy_from_slice(dlin.row(0));
                for r in 1..dlin.rows() {
                    for (o, &v) in db.row_mut(0).iter_mut().zip(dlin.row(r)) {
                        *o += v;
                    }
                }
                accum_owned(nodes, grads, arena, b, db);
            }
            for (input, weight) in [(h, wh), (x, wx)] {
                let (iv, wv) = (&nodes[input.0].value, &nodes[weight.0].value);
                if rg(input) {
                    let mut d = arena.scratch(dlin.rows(), wv.rows());
                    dlin.matmul_bt_into(wv, &mut d);
                    accum_owned(nodes, grads, arena, input, d);
                }
                if rg(weight) {
                    let mut d = arena.scratch(iv.cols(), dlin.cols());
                    iv.matmul_at_into(&dlin, &mut d);
                    accum_owned(nodes, grads, arena, weight, d);
                }
            }
            arena.give(dlin);
        }
        &Op::FusedGruCombine { z, n, h_prev } => {
            // Same per-slot accumulation order as the unfused blend:
            // z ← g⊙h_prev, h_prev ← g⊙z (from the z*h_prev product),
            // n ← g⊙(1-z) (from (1-z)*n), then z ← -(g⊙n) (through the
            // 1-z subtraction).
            let mut delta = |id: NodeId, other: NodeId, f: fn(f32, f32) -> f32| {
                if rg(id) {
                    let mut d = arena.scratch(g.rows(), g.cols());
                    g.zip_into(&nodes[other.0].value, f, &mut d);
                    accum_owned(nodes, grads, arena, id, d);
                }
            };
            delta(z, h_prev, |gi, hi| gi * hi);
            delta(h_prev, z, |gi, zi| gi * zi);
            delta(n, z, |gi, zi| gi * (1.0 - zi));
            delta(z, n, |gi, ni| -(gi * ni));
        }
    }
}

/// Whether row `r` of `x` is fully masked (every entry `-inf`), i.e. its
/// softmax/log-softmax output was pinned to the uniform constant.
fn row_fully_masked(x: &Tensor, r: usize) -> bool {
    x.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max) == f32::NEG_INFINITY
}

/// Backward-pass span name per op kind, for `Op`-level profiling.
fn bwd_span_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "graph.bwd.leaf",
        Op::Input => "graph.bwd.input",
        Op::Param => "graph.bwd.param",
        Op::Add(..) => "graph.bwd.add",
        Op::Sub(..) => "graph.bwd.sub",
        Op::Mul(..) => "graph.bwd.mul",
        Op::Scale(..) => "graph.bwd.scale",
        Op::AddRow(..) => "graph.bwd.add_row",
        Op::Matmul(..) => "graph.bwd.matmul",
        Op::Transpose(..) => "graph.bwd.transpose",
        Op::Sigmoid(..) => "graph.bwd.sigmoid",
        Op::Tanh(..) => "graph.bwd.tanh",
        Op::Relu(..) => "graph.bwd.relu",
        Op::SoftmaxRows(..) => "graph.bwd.softmax_rows",
        Op::LogSoftmaxRows(..) => "graph.bwd.log_softmax_rows",
        Op::HCat(..) => "graph.bwd.hcat",
        Op::VCat(..) => "graph.bwd.vcat",
        Op::RowSlice(..) => "graph.bwd.row_slice",
        Op::GatherRows(..) => "graph.bwd.gather_rows",
        Op::SumAll(..) => "graph.bwd.sum_all",
        Op::MeanRows(..) => "graph.bwd.mean_rows",
        Op::Unfold(..) => "graph.bwd.unfold",
        Op::Exp(..) => "graph.bwd.exp",
        Op::Ln(..) => "graph.bwd.ln",
        Op::AddScalar(..) => "graph.bwd.add_scalar",
        Op::PickNll(..) => "graph.bwd.pick_nll",
        Op::BceWithLogits(..) => "graph.bwd.bce_with_logits",
        Op::FusedGate { .. } => "graph.bwd.fused_gate",
        Op::FusedGruCombine { .. } => "graph.bwd.fused_gru_combine",
    }
}

/// Row-wise softmax into a caller-provided same-shape buffer. A
/// fully-masked row (all `-inf`) yields the uniform distribution `1/V`
/// instead of the `0/0 = NaN` row the naive rewrite produces.
fn softmax_rows_into(x: &Tensor, out: &mut Tensor) {
    for r in 0..x.rows() {
        let src = x.row(r);
        let row = out.row_mut(r);
        let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            row.fill(1.0 / src.len() as f32);
            continue;
        }
        let mut sum = 0.0;
        for (o, &e) in row.iter_mut().zip(src) {
            *o = (e - max).exp();
            sum += *o;
        }
        for e in row.iter_mut() {
            *e /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values_compose() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.leaf(Tensor::row_vector(&[3.0, 4.0]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
        let m = g.mul(a, b);
        assert_eq!(g.value(m).data(), &[3.0, 8.0]);
    }

    #[test]
    fn backward_through_add_mul() {
        // loss = sum(a * b) => dL/da = b, dL/db = a
        let mut g = Graph::new();
        let a = g.input(Tensor::row_vector(&[1.0, 2.0]));
        let b = g.input(Tensor::row_vector(&[3.0, 4.0]));
        let m = g.mul(a, b);
        let loss = g.sum_all(m);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[3.0, 4.0]);
        assert_eq!(g.grad(b).unwrap().data(), &[1.0, 2.0]);
    }

    #[test]
    fn backward_matmul_matches_manual() {
        // loss = sum(A @ B); dA = ones @ B^T, dB = A^T @ ones
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.input(Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        g.backward(loss);
        // dA[i][k] = sum_j B[k][j]
        assert_eq!(g.grad(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[k][j] = sum_i A[i][k]
        assert_eq!(g.grad(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn leaf_has_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::row_vector(&[1.0]));
        let b = g.input(Tensor::row_vector(&[2.0]));
        let m = g.mul(a, b);
        let loss = g.sum_all(m);
        g.backward(loss);
        assert!(g.grad(a).is_none());
        assert!(g.grad(b).is_some());
    }

    #[test]
    fn gather_rows_accumulates_duplicates() {
        let mut g = Graph::new();
        let e = g.input(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let picked = g.gather_rows(e, vec![0, 2, 0]);
        assert_eq!(g.value(picked).rows(), 3);
        let loss = g.sum_all(picked);
        g.backward(loss);
        let grad = g.grad(e).unwrap();
        assert_eq!(grad.row(0), &[2.0, 2.0]); // picked twice
        assert_eq!(grad.row(1), &[0.0, 0.0]);
        assert_eq!(grad.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]));
        let s = g.softmax_rows(a);
        for r in 0..2 {
            let sum: f32 = g.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let mut g = Graph::new();
        let x = Tensor::from_vec(1, 3, vec![0.3, -0.5, 2.0]);
        let a = g.leaf(x.clone());
        let s = g.softmax_rows(a);
        let b = g.leaf(x);
        let l = g.log_softmax_rows(b);
        for c in 0..3 {
            let diff = g.value(s).get(0, c).ln() - g.value(l).get(0, c);
            assert!(diff.abs() < 1e-5);
        }
    }

    #[test]
    fn fully_masked_softmax_rows_are_uniform_not_nan() {
        // Regression: an all-`-inf` row used to produce `e - max = NaN`
        // (log-softmax) or `0/0 = NaN` (softmax) and poison the tape.
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(2, 4, vec![ninf, ninf, ninf, ninf, 1.0, 2.0, 3.0, 4.0]);
        let mut g = Graph::new();
        let a = g.leaf(x.clone());
        let s = g.softmax_rows(a);
        assert_eq!(g.value(s).row(0), &[0.25; 4], "masked row pins to uniform");
        assert!((g.value(s).row(1).iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(g.value(s).data().iter().all(|v| v.is_finite()));

        let b = g.leaf(x.clone());
        let l = g.log_softmax_rows(b);
        assert_eq!(g.value(l).row(0), &[-(4f32.ln()); 4], "masked row pins to -ln V");
        assert!(g.value(l).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fully_masked_softmax_rows_have_zero_gradient() {
        // The pinned uniform row is a constant: backward must not push
        // NaN (or anything) into the masked row of the input.
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(2, 3, vec![ninf, ninf, ninf, 0.5, -1.0, 2.0]);
        for log in [false, true] {
            let mut g = Graph::new();
            let a = g.input(x.clone());
            let s = if log { g.log_softmax_rows(a) } else { g.softmax_rows(a) };
            let loss = g.sum_all(s);
            g.backward(loss);
            let grad = g.grad(a).unwrap();
            assert_eq!(grad.row(0), &[0.0; 3], "masked row gradient must be zero (log={log})");
            assert!(grad.data().iter().all(|v| v.is_finite()), "log={log}");
        }
    }

    #[test]
    fn bce_matches_closed_form() {
        // logits = 0 => sigmoid = 0.5 => loss = ln 2 regardless of target
        let mut g = Graph::new();
        let a = g.input(Tensor::row_vector(&[0.0, 0.0]));
        let loss = g.bce_with_logits(a, Tensor::row_vector(&[1.0, 0.0]));
        assert!((g.value(loss).scalar() - std::f32::consts::LN_2).abs() < 1e-6);
        g.backward(loss);
        let grad = g.grad(a).unwrap();
        // d/dx = (sigmoid(x) - t)/n = (0.5 - t)/2
        assert!((grad.data()[0] - (-0.25)).abs() < 1e-6);
        assert!((grad.data()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn pick_nll_selects_targets() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(2, 2, vec![1.0, 3.0, 2.0, 0.5]));
        let lp = g.log_softmax_rows(a);
        let loss = g.pick_nll(lp, vec![1, 0]);
        // manual: -(logp[0][1] + logp[1][0]) / 2
        let expected = -(g.value(lp).get(0, 1) + g.value(lp).get(1, 0)) / 2.0;
        assert!((g.value(loss).scalar() - expected).abs() < 1e-6);
    }

    #[test]
    fn unfold_shapes_and_backward() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(4, 2, vec![1.0; 8]));
        let u = g.unfold(a, 3);
        assert_eq!(g.value(u).shape(), (2, 6));
        let loss = g.sum_all(u);
        g.backward(loss);
        let grad = g.grad(a).unwrap();
        // middle rows appear in both windows
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[2.0, 2.0]);
        assert_eq!(grad.row(2), &[2.0, 2.0]);
        assert_eq!(grad.row(3), &[1.0, 1.0]);
    }

    #[test]
    fn param_grads_merge_multiple_bindings() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Tensor::row_vector(&[2.0]));
        let mut g = Graph::new();
        let p1 = g.param(&store, pid);
        let p2 = g.param(&store, pid);
        let s = g.mul(p1, p2); // w * w
        let loss = g.sum_all(s);
        g.backward(loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 1);
        // d(w^2)/dw = 2w = 4
        assert_eq!(grads[0].1.data(), &[4.0]);
    }

    #[test]
    fn param_grads_merge_many_repeated_bindings_in_first_bound_order() {
        // Regression companion to the ParamId-indexed merge: many params,
        // each bound many times, interleaved — the output must keep
        // first-binding order and sum every binding's gradient.
        const PARAMS: usize = 40;
        const REPEATS: usize = 25;
        let mut store = ParamStore::new();
        let pids: Vec<ParamId> = (0..PARAMS)
            .map(|i| store.add(format!("w{i}"), Tensor::row_vector(&[1.0 + i as f32])))
            .collect();
        let mut g = Graph::new();
        let mut acc: Option<NodeId> = None;
        for r in 0..REPEATS {
            for &pid in &pids {
                // Interleave bindings so first-binding order != last-use order.
                let node = g.param(&store, pid);
                let scaled = g.scale(node, (r + 1) as f32);
                let s = g.sum_all(scaled);
                acc = Some(match acc {
                    None => s,
                    Some(a) => g.add(a, s),
                });
            }
        }
        g.backward(acc.unwrap());
        let grads = g.param_grads();
        assert_eq!(grads.len(), PARAMS);
        let expected_order: Vec<ParamId> = pids.clone();
        let got_order: Vec<ParamId> = grads.iter().map(|(id, _)| *id).collect();
        assert_eq!(got_order, expected_order, "first-binding order must be preserved");
        // d/dw of sum_r (r+1) * w = sum of 1..=REPEATS.
        let expected = (REPEATS * (REPEATS + 1) / 2) as f32;
        for (_, grad) in &grads {
            assert_eq!(grad.data(), &[expected]);
        }
    }

    #[test]
    fn row_slice_grad_is_zero_padded() {
        let mut g = Graph::new();
        let a = g.input(Tensor::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let s = g.row_slice(a, 1, 2);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn a_frozen_tape_binds_each_parameter_once() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(&[1.0, 2.0]));
        let b = store.add("b", Tensor::row_vector(&[3.0]));
        let mut g = Graph::frozen();
        let first = g.param(&store, w);
        let len = g.len();
        assert_eq!(g.param(&store, w), first, "a second bind returns the first node");
        assert_eq!(g.len(), len, "a second bind adds no node");
        let other = g.param(&store, b);
        assert_ne!(other, first);
        assert_eq!(g.value(other).data(), &[3.0]);
        assert_eq!(g.len(), len + 1);
    }

    #[test]
    fn stores_sharing_a_param_id_bind_to_their_own_values() {
        let mut a = ParamStore::new();
        let mut b = ParamStore::new();
        let ia = a.add("w", Tensor::row_vector(&[1.0]));
        let ib = b.add("w", Tensor::row_vector(&[2.0]));
        assert_eq!(ia, ib, "both stores hand out the same id");
        let mut g = Graph::frozen();
        let na = g.param(&a, ia);
        let nb = g.param(&b, ib);
        assert_ne!(na, nb);
        assert_eq!(g.value(na).data(), &[1.0]);
        assert_eq!(g.value(nb).data(), &[2.0]);
    }

    #[test]
    fn a_bind_after_a_store_mutation_carries_the_new_values() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(&[1.0]));
        let mut g = Graph::frozen();
        let before = g.param(&store, w);
        store.get_mut(w).data_mut()[0] = 5.0;
        let after = g.param(&store, w);
        assert_ne!(after, before);
        assert_eq!(g.value(before).data(), &[1.0], "an earlier binding keeps its values");
        assert_eq!(g.value(after).data(), &[5.0]);
        // `add` renews the version too; the new binding is of the same values.
        store.add("v", Tensor::row_vector(&[0.0]));
        let added = g.param(&store, w);
        assert_ne!(added, after);
        assert_eq!(g.value(added).data(), &[5.0]);
        assert_eq!(g.param(&store, w), added);
    }

    #[test]
    fn a_training_tape_adds_a_param_node_per_bind() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::row_vector(&[1.0]));
        let mut g = Graph::new();
        let first = g.param(&store, w);
        let second = g.param(&store, w);
        assert_ne!(first, second);
        assert_eq!(g.len(), 2);
        let s = g.add(first, second);
        let loss = g.sum_all(s);
        g.backward(loss);
        assert!(g.grad(first).is_some() && g.grad(second).is_some());
        assert_eq!(g.param_grads()[0].1.data(), &[2.0]);
    }

    /// Unfused reference for [`Graph::fused_gate`]: the exact composition
    /// `GruCell::step` used before fusion.
    fn unfused_gate(
        g: &mut Graph,
        x: NodeId,
        wx: NodeId,
        h: NodeId,
        wh: NodeId,
        b: NodeId,
        act: GateAct,
    ) -> NodeId {
        let xw = g.matmul(x, wx);
        let hw = g.matmul(h, wh);
        let s = g.add(xw, hw);
        let lin = g.add(s, b);
        match act {
            GateAct::Sigmoid => g.sigmoid(lin),
            GateAct::Tanh => g.tanh(lin),
        }
    }

    /// Unfused reference for [`Graph::fused_gru_combine`].
    fn unfused_combine(g: &mut Graph, z: NodeId, n: NodeId, h_prev: NodeId) -> NodeId {
        let (rows, cols) = g.value(z).shape();
        let ones = g.leaf(Tensor::full(rows, cols, 1.0));
        let omz = g.sub(ones, z);
        let a = g.mul(omz, n);
        let b = g.mul(z, h_prev);
        g.add(a, b)
    }

    #[test]
    fn fused_gate_matches_unfused_composition_bitwise() {
        for act in [GateAct::Sigmoid, GateAct::Tanh] {
            let build = |g: &mut Graph, fused: bool| {
                let x = g.input(Tensor::xavier_seeded(1, 6, 21));
                let wx = g.input(Tensor::xavier_seeded(6, 5, 22));
                let h = g.input(Tensor::xavier_seeded(1, 7, 23));
                let wh = g.input(Tensor::xavier_seeded(7, 5, 24));
                let b = g.input(Tensor::xavier_seeded(1, 5, 25));
                let y = if fused {
                    g.fused_gate(x, wx, h, wh, b, act)
                } else {
                    unfused_gate(g, x, wx, h, wh, b, act)
                };
                let loss = g.sum_all(y);
                g.backward(loss);
                (
                    g.value(y).clone(),
                    [x, wx, h, wh, b].map(|n| g.grad(n).unwrap().clone()),
                )
            };
            let mut gf = Graph::new();
            let (yf, gradf) = build(&mut gf, true);
            let mut gu = Graph::new();
            let (yu, gradu) = build(&mut gu, false);
            assert_eq!(yf, yu, "forward value ({act:?})");
            for (i, (a, b)) in gradf.iter().zip(&gradu).enumerate() {
                let bits_equal = a
                    .data()
                    .iter()
                    .zip(b.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits());
                assert!(bits_equal, "grad {i} differs ({act:?})");
            }
        }
    }

    #[test]
    fn fused_gru_combine_matches_unfused_composition_bitwise() {
        let build = |g: &mut Graph, fused: bool| {
            let zl = g.input(Tensor::xavier_seeded(1, 8, 31));
            let z = g.sigmoid(zl);
            let nl = g.input(Tensor::xavier_seeded(1, 8, 32));
            let n = g.tanh(nl);
            let hp = g.input(Tensor::xavier_seeded(1, 8, 33));
            let h = if fused {
                g.fused_gru_combine(z, n, hp)
            } else {
                unfused_combine(g, z, n, hp)
            };
            let loss = g.sum_all(h);
            g.backward(loss);
            (g.value(h).clone(), [zl, nl, hp].map(|m| g.grad(m).unwrap().clone()))
        };
        let mut gf = Graph::new();
        let (hf, gradf) = build(&mut gf, true);
        let mut gu = Graph::new();
        let (hu, gradu) = build(&mut gu, false);
        assert_eq!(hf, hu, "forward value");
        for (i, (a, b)) in gradf.iter().zip(&gradu).enumerate() {
            let bits_equal =
                a.data().iter().zip(b.data()).all(|(p, q)| p.to_bits() == q.to_bits());
            assert!(bits_equal, "grad {i} differs");
        }
    }
}
