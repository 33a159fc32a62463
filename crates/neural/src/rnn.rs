//! The one recurrence behind every LSTM and GRU (§IV-B(ii), §V-B).
//!
//! Both of the paper's networks stack recurrent layers with an affine
//! transformation `L^l(x) = W_0^l x + b_0^l` before each one to keep
//! dimensions consistent: the §IV-B(ii) LSTMs over question and column
//! words, and the §V-B bi-GRU seq2seq encoder. [`Cell`] is one recurrent
//! step ([`LstmCell`](crate::LstmCell), [`GruCell`](crate::GruCell)),
//! [`run`] is the only loop that steps a cell over a sequence, and
//! [`Rnn`] is the stacked, optionally bi-directional layer built on both.

use nlidb_tensor::{Graph, NodeId, ParamStore, Rng};

use crate::linear::Linear;

/// One recurrent cell: a step function over `[1, d]` rows.
pub trait Cell: Sized {
    /// What the cell carries from one step to the next (`h` for a GRU,
    /// `(h, C)` for an LSTM).
    type State: Copy;

    /// Creates a cell mapping `[1, in_dim]` inputs to `[1, hidden]`
    /// outputs, registering its parameters under `prefix`.
    fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self;

    /// The zero initial state.
    fn zero_state(&self, g: &mut Graph) -> Self::State;

    /// One step: the state after reading `x` from `state`.
    fn step(&self, g: &mut Graph, store: &ParamStore, x: NodeId, state: Self::State)
        -> Self::State;

    /// The hidden output `h` of a state.
    fn output(state: Self::State) -> NodeId;
}

/// Steps `cell` over positions `0..n` from the zero state, in order or
/// (with `reverse`) right to left, and returns each position's hidden
/// output in input order. `input(g, t, h_prev)` builds position `t`'s
/// input given the hidden output of the previously visited position.
pub fn run<C: Cell>(
    g: &mut Graph,
    store: &ParamStore,
    cell: &C,
    n: usize,
    reverse: bool,
    mut input: impl FnMut(&mut Graph, usize, NodeId) -> NodeId,
) -> Vec<NodeId> {
    let mut state = cell.zero_state(g);
    let mut outputs = Vec::with_capacity(n);
    for i in 0..n {
        let t = if reverse { n - 1 - i } else { i };
        let x = input(g, t, C::output(state));
        state = cell.step(g, store, x, state);
        outputs.push(C::output(state));
    }
    if reverse {
        outputs.reverse();
    }
    outputs
}

/// A stacked, optionally bi-directional recurrent layer with a per-layer
/// affine input map: each layer projects its input to `hidden`, then runs
/// a forward cell (and a backward one) over the projected rows.
#[derive(Debug, Clone)]
pub struct Rnn<C> {
    affines: Vec<Linear>,
    forward_cells: Vec<C>,
    backward_cells: Vec<C>,
    hidden: usize,
}

impl<C: Cell> Rnn<C> {
    /// Builds the stack, registering `{prefix}.aff{l}`, `{prefix}.fwd{l}`
    /// and (when bi-directional) `{prefix}.bwd{l}` for each layer `l`, in
    /// that order.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        layers: usize,
        bidirectional: bool,
        rng: &mut Rng,
    ) -> Self {
        assert!(layers >= 1, "rnn needs at least one layer");
        let layer_out = if bidirectional { 2 * hidden } else { hidden };
        let mut rnn = Rnn {
            affines: Vec::with_capacity(layers),
            forward_cells: Vec::with_capacity(layers),
            backward_cells: Vec::new(),
            hidden,
        };
        for l in 0..layers {
            let d_in = if l == 0 { in_dim } else { layer_out };
            let name = |part: &str| format!("{prefix}.{part}{l}");
            rnn.affines.push(Linear::new(store, &name("aff"), d_in, hidden, rng));
            rnn.forward_cells.push(C::new(store, &name("fwd"), hidden, hidden, rng));
            if bidirectional {
                rnn.backward_cells.push(C::new(store, &name("bwd"), hidden, hidden, rng));
            }
        }
        rnn
    }

    /// Width of each output row: `2 * hidden` when bi-directional.
    pub fn out_dim(&self) -> usize {
        if self.backward_cells.is_empty() {
            self.hidden
        } else {
            2 * self.hidden
        }
    }

    /// Runs the stack over `[n, in_dim]` (`n ≥ 1`), returning `[n, out_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, xs: NodeId) -> NodeId {
        let mut h = xs;
        for (l, affine) in self.affines.iter().enumerate() {
            let projected = affine.forward(g, store, h);
            let n = g.value(projected).rows();
            let direction = |g: &mut Graph, cell: &C, reverse: bool| {
                let states = run(g, store, cell, n, reverse, |g, t, _| g.row(projected, t));
                states[1..].iter().fold(states[0], |acc, &s| g.vcat(acc, s))
            };
            let fwd = direction(g, &self.forward_cells[l], false);
            h = match self.backward_cells.get(l) {
                Some(cell) => {
                    let bwd = direction(g, cell, true);
                    g.hcat(fwd, bwd)
                }
                None => fwd,
            };
        }
        h
    }

    /// The summary of a bi-directional stack's output that initializes a
    /// decoder: `[h⃗_N ; h⃖_1]`, row `n-1`'s forward half concatenated with
    /// row 0's backward half.
    pub fn final_summary(&self, g: &mut Graph, encoded: NodeId) -> NodeId {
        let n = g.value(encoded).rows();
        let last = g.row(encoded, n - 1);
        let first = g.row(encoded, 0);
        // encoded rows are [fwd | bwd]; take fwd of last, bwd of first.
        let h = self.hidden;
        let last_t = g.transpose(last);
        let fwd = g.row_slice(last_t, 0, h);
        let first_t = g.transpose(first);
        let bwd = g.row_slice(first_t, h, 2 * h);
        let stacked = g.vcat(fwd, bwd);
        g.transpose(stacked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GruCell;
    use nlidb_tensor::Tensor;

    #[test]
    fn run_feeds_each_step_the_previous_output() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 2, 3, &mut Rng::seed_from_u64(5));
        for reverse in [false, true] {
            let mut g = Graph::new();
            let xs = g.leaf(Tensor::from_vec(3, 2, vec![0.5, -1.0, 2.0, 0.0, 1.0, 1.0]));
            let mut seen = Vec::new();
            let outs = run(&mut g, &store, &cell, 3, reverse, |g, t, h_prev| {
                seen.push((t, g.value(h_prev).clone()));
                g.row(xs, t)
            });
            let order = if reverse { [2, 1, 0] } else { [0, 1, 2] };
            assert_eq!(seen.iter().map(|(t, _)| *t).collect::<Vec<_>>(), order);
            assert_eq!(seen[0].1, Tensor::zeros(1, 3), "the first step reads the zero state");
            for k in 1..3 {
                assert_eq!(&seen[k].1, g.value(outs[order[k - 1]]));
            }
        }
    }
}
