//! The LSTM cell of the §IV-B(ii) sequence models.
//!
//! The paper stacks multi-layer LSTMs on top of the word embedder, with an
//! affine transformation before each layer; `Rnn<LstmCell>`
//! ([`crate::rnn::Rnn`]) reproduces that structure.

use nlidb_tensor::{GateAct, Graph, NodeId, ParamId, ParamStore, Rng, Tensor};

use crate::rnn::Cell;

/// A single LSTM cell with separate gate weight matrices.
#[derive(Debug, Clone)]
pub struct LstmCell {
    // Gate order: input, forget, output, candidate.
    wx: [ParamId; 4],
    wh: [ParamId; 4],
    b: [ParamId; 4],
    hidden: usize,
}

impl Cell for LstmCell {
    /// `(h, C)`: the hidden output and the memory cell.
    type State = (NodeId, NodeId);

    fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let gate = |store: &mut ParamStore, name: &str, rng: &mut Rng| {
            (
                store.add(format!("{prefix}.{name}.wx"), Tensor::xavier(in_dim, hidden, rng)),
                store.add(format!("{prefix}.{name}.wh"), Tensor::xavier(hidden, hidden, rng)),
                store.add(format!("{prefix}.{name}.b"), Tensor::zeros(1, hidden)),
            )
        };
        let (ix, ih, ib) = gate(store, "i", rng);
        let (fx, fh, fb) = gate(store, "f", rng);
        let (ox, oh, ob) = gate(store, "o", rng);
        let (gx, gh, gb) = gate(store, "g", rng);
        // Forget-gate bias starts at 1.0: standard trick for gradient flow.
        for v in store.get_mut(fb).data_mut() {
            *v = 1.0;
        }
        LstmCell { wx: [ix, fx, ox, gx], wh: [ih, fh, oh, gh], b: [ib, fb, ob, gb], hidden }
    }

    fn zero_state(&self, g: &mut Graph) -> (NodeId, NodeId) {
        let h = g.leaf(Tensor::zeros(1, self.hidden));
        let c = g.leaf(Tensor::zeros(1, self.hidden));
        (h, c)
    }

    /// One step: `(h, C) = LSTM(x, h_prev, C_prev)`, each gate one
    /// [`Graph::fused_gate`] node, which is bitwise-identical (forward and
    /// backward) to composing `act((x @ wx + h @ wh) + b)` from primitive
    /// ops.
    fn step(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        (h_prev, c_prev): (NodeId, NodeId),
    ) -> (NodeId, NodeId) {
        let gate = |g: &mut Graph, idx: usize, act: GateAct| {
            let wx = g.param(store, self.wx[idx]);
            let wh = g.param(store, self.wh[idx]);
            let b = g.param(store, self.b[idx]);
            g.fused_gate(x, wx, h_prev, wh, b, act)
        };
        let i = gate(g, 0, GateAct::Sigmoid);
        let f = gate(g, 1, GateAct::Sigmoid);
        let o = gate(g, 2, GateAct::Sigmoid);
        let cand = gate(g, 3, GateAct::Tanh);
        let keep = g.mul(f, c_prev);
        let write = g.mul(i, cand);
        let c = g.add(keep, write);
        let c_act = g.tanh(c);
        let h = g.mul(o, c_act);
        (h, c)
    }

    fn output((h, _): (NodeId, NodeId)) -> NodeId {
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::rnn::{run, Rnn};
    use nlidb_tensor::optim::Adam;

    type Lstm = Rnn<LstmCell>;

    fn rng() -> Rng {
        Rng::seed_from_u64(3)
    }

    #[test]
    fn cell_step_shapes() {
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "c", 4, 6, &mut rng());
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(1, 4));
        let state = cell.zero_state(&mut g);
        let (h, c) = cell.step(&mut g, &store, x, state);
        assert_eq!(g.value(h).shape(), (1, 6));
        assert_eq!(g.value(c).shape(), (1, 6));
    }

    #[test]
    fn run_lstm_preserves_input_order_when_reversed() {
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, "c", 2, 3, &mut rng());
        let mut g = Graph::new();
        let xs = g.leaf(Tensor::from_vec(4, 2, vec![1.0; 8]));
        let fwd = run(&mut g, &store, &cell, 4, false, |g, t, _| g.row(xs, t));
        let bwd = run(&mut g, &store, &cell, 4, true, |g, t, _| g.row(xs, t));
        assert_eq!((fwd.len(), bwd.len()), (4, 4));
        assert_eq!(g.value(fwd[0]).shape(), (1, 3));
        // For constant input, forward states grow over time; the reversed
        // run's *first returned row* is its last-processed state.
        assert_eq!(g.value(fwd[0]), g.value(bwd[3]));
    }

    #[test]
    fn stacked_bilstm_shapes() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 5, 4, 2, true, &mut rng());
        assert_eq!(lstm.out_dim(), 8);
        let mut g = Graph::new();
        let xs = g.leaf(Tensor::zeros(6, 5));
        let out = lstm.forward(&mut g, &store, xs);
        assert_eq!(g.value(out).shape(), (6, 8));
    }

    #[test]
    fn unidirectional_lstm_is_causal() {
        // Changing a later input must not change earlier outputs.
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, 1, false, &mut rng());
        let run = |xs: Tensor, store: &ParamStore| {
            let mut g = Graph::new();
            let x = g.leaf(xs);
            let out = lstm.forward(&mut g, store, x);
            g.value(out).clone()
        };
        let a = run(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), &store);
        let b = run(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 9.0, -9.0]), &store);
        assert_eq!(a.row(0), b.row(0));
        assert_eq!(a.row(1), b.row(1));
        assert_ne!(a.row(2), b.row(2));
    }

    #[test]
    fn bidirectional_lstm_is_not_causal() {
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 3, 1, true, &mut rng());
        let run = |xs: Tensor, store: &ParamStore| {
            let mut g = Graph::new();
            let x = g.leaf(xs);
            let out = lstm.forward(&mut g, store, x);
            g.value(out).clone()
        };
        let a = run(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), &store);
        let b = run(Tensor::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 9.0, -9.0]), &store);
        assert_ne!(a.row(0), b.row(0), "backward pass should see later inputs");
    }

    #[test]
    fn lstm_learns_sequence_sum_sign() {
        // Binary task: is the sum of a +-1 sequence positive? Tests that
        // gradients flow through the recurrent steps.
        let mut r = rng();
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 1, 6, 1, false, &mut r);
        let head = Linear::new(&mut store, "head", 6, 1, &mut r);
        let mut opt = Adam::new(0.02);
        let mut data = Vec::new();
        for _ in 0..40 {
            let seq: Vec<f32> =
                (0..5).map(|_| if r.gen_bool(0.5) { 1.0 } else { -1.0 }).collect();
            let label = if seq.iter().sum::<f32>() > 0.0 { 1.0 } else { 0.0 };
            data.push((seq, label));
        }
        let mut last_loss = f32::INFINITY;
        for _ in 0..60 {
            let mut total = 0.0;
            for (seq, label) in &data {
                let mut g = Graph::new();
                let xs = g.leaf(Tensor::from_vec(seq.len(), 1, seq.clone()));
                let states = lstm.forward(&mut g, &store, xs);
                let last = g.row(states, seq.len() - 1);
                let logit = head.forward(&mut g, &store, last);
                let loss = g.bce_with_logits(logit, Tensor::row_vector(&[*label]));
                total += g.value(loss).scalar();
                g.backward(loss);
                let mut grads = g.param_grads();
                nlidb_tensor::optim::clip_global_norm(&mut grads, 5.0);
                opt.step(&mut store, &grads);
            }
            last_loss = total / data.len() as f32;
        }
        assert!(last_loss < 0.3, "sequence task did not converge: {last_loss}");
    }
}
