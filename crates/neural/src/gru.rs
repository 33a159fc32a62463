//! The GRU cell of the §V-B seq2seq model.
//!
//! The paper's seq2seq encoder is a stacked bi-directional GRU with an
//! affine transformation before each layer (`Rnn<GruCell>`, see
//! [`crate::rnn::Rnn`]); the decoder is a single attentive GRU.
//! [`GruCell`] provides the step function for both.

use nlidb_tensor::{GateAct, Graph, NodeId, ParamId, ParamStore, Rng, Tensor};

use crate::rnn::Cell;

/// A single GRU cell (Cho et al. 2014 formulation).
#[derive(Debug, Clone)]
pub struct GruCell {
    // Gate order: reset, update, candidate.
    wx: [ParamId; 3],
    wh: [ParamId; 3],
    b: [ParamId; 3],
    hidden: usize,
}

impl Cell for GruCell {
    /// The hidden state `h`.
    type State = NodeId;

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
        let (rx, rh, rb) = gate(store, "r", rng);
        let (zx, zh, zb) = gate(store, "z", rng);
        let (nx, nh, nb) = gate(store, "n", rng);
        GruCell { wx: [rx, zx, nx], wh: [rh, zh, nh], b: [rb, zb, nb], hidden }
    }

    fn zero_state(&self, g: &mut Graph) -> NodeId {
        g.leaf(Tensor::zeros(1, self.hidden))
    }

    /// One step: `h = GRU(x, h_prev)`, via the fused gate kernels.
    ///
    /// Uses [`Graph::fused_gate`] / [`Graph::fused_gru_combine`], which
    /// are bitwise-identical (forward and backward) to the unfused
    /// composition kept in [`GruCell::step_reference`]; the differential
    /// test `fused_step_matches_reference_bitwise` pins the equivalence.
    fn step(&self, g: &mut Graph, store: &ParamStore, x: NodeId, h_prev: NodeId) -> NodeId {
        let gate = |g: &mut Graph, idx: usize, h: NodeId, act: GateAct| {
            let wx = g.param(store, self.wx[idx]);
            let wh = g.param(store, self.wh[idx]);
            let b = g.param(store, self.b[idx]);
            g.fused_gate(x, wx, h, wh, b, act)
        };
        let r = gate(g, 0, h_prev, GateAct::Sigmoid);
        let z = gate(g, 1, h_prev, GateAct::Sigmoid);
        // Candidate uses the reset-gated previous state.
        let rh = g.mul(r, h_prev);
        let n = gate(g, 2, rh, GateAct::Tanh);
        // h = (1 - z) * n + z * h_prev
        g.fused_gru_combine(z, n, h_prev)
    }

    fn output(h: NodeId) -> NodeId {
        h
    }
}

impl GruCell {
    /// The unfused composition [`GruCell::step`] replaced: one tape node
    /// per primitive op. Kept as the reference implementation for the
    /// fused-kernel differential tests; not used on hot paths.
    pub fn step_reference(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        h_prev: NodeId,
    ) -> NodeId {
        let lin = |g: &mut Graph, idx: usize, h: NodeId| {
            let wx = g.param(store, self.wx[idx]);
            let wh = g.param(store, self.wh[idx]);
            let b = g.param(store, self.b[idx]);
            let xw = g.matmul(x, wx);
            let hw = g.matmul(h, wh);
            let s = g.add(xw, hw);
            g.add(s, b)
        };
        let r_lin = lin(g, 0, h_prev);
        let z_lin = lin(g, 1, h_prev);
        let r = g.sigmoid(r_lin);
        let z = g.sigmoid(z_lin);
        // Candidate uses the reset-gated previous state.
        let rh = g.mul(r, h_prev);
        let n_lin = lin(g, 2, rh);
        let n = g.tanh(n_lin);
        // h = (1 - z) * n + z * h_prev
        let ones = g.leaf(Tensor::full(1, self.hidden, 1.0));
        let one_minus_z = g.sub(ones, z);
        let a = g.mul(one_minus_z, n);
        let b2 = g.mul(z, h_prev);
        g.add(a, b2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::rnn::{run, Rnn};
    use nlidb_tensor::optim::Adam;

    type BiGru = Rnn<GruCell>;

    fn rng() -> Rng {
        Rng::seed_from_u64(11)
    }

    #[test]
    fn gru_step_shapes() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 3, 5, &mut rng());
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(1, 3));
        let h0 = cell.zero_state(&mut g);
        let h = cell.step(&mut g, &store, x, h0);
        assert_eq!(g.value(h).shape(), (1, 5));
    }

    #[test]
    fn gru_zero_input_zero_state_is_bounded() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 3, 5, &mut rng());
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(1, 3));
        let h0 = cell.zero_state(&mut g);
        let h = cell.step(&mut g, &store, x, h0);
        assert!(g.value(h).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn bigru_shapes_and_summary() {
        let mut store = ParamStore::new();
        let enc = BiGru::new(&mut store, "e", 4, 3, 2, true, &mut rng());
        assert_eq!(enc.out_dim(), 6);
        let mut g = Graph::new();
        let xs = g.leaf(Tensor::zeros(5, 4));
        let out = enc.forward(&mut g, &store, xs);
        assert_eq!(g.value(out).shape(), (5, 6));
        let summary = enc.final_summary(&mut g, out);
        assert_eq!(g.value(summary).shape(), (1, 6));
    }

    #[test]
    fn final_summary_selects_correct_halves() {
        let mut store = ParamStore::new();
        let enc = BiGru::new(&mut store, "e", 2, 2, 1, true, &mut rng());
        let mut g = Graph::new();
        // Hand-craft an "encoded" matrix: rows [fwd | bwd] with known values.
        let encoded = g.leaf(Tensor::from_vec(
            2,
            4,
            vec![
                1.0, 2.0, 3.0, 4.0, // row 0: fwd=[1,2] bwd=[3,4]
                5.0, 6.0, 7.0, 8.0, // row 1: fwd=[5,6] bwd=[7,8]
            ],
        ));
        let s = enc.final_summary(&mut g, encoded);
        // fwd of last row ++ bwd of first row
        assert_eq!(g.value(s).data(), &[5.0, 6.0, 3.0, 4.0]);
    }

    #[test]
    fn fused_step_matches_reference_bitwise() {
        // The fused-kernel step must be bit-for-bit equal to the unfused
        // composition: forward state, input gradient, previous-state
        // gradient, and every parameter gradient. Runs a 3-step unrolled
        // chain so cross-step accumulation order is covered too.
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 3, 5, &mut rng());
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xs = g.input(Tensor::xavier_seeded(3, 3, 77));
            let mut h = g.input(Tensor::xavier_seeded(1, 5, 78));
            let h0 = h;
            for t in 0..3 {
                let x = g.row(xs, t);
                h = if fused {
                    cell.step(&mut g, &store, x, h)
                } else {
                    cell.step_reference(&mut g, &store, x, h)
                };
            }
            let loss = g.sum_all(h);
            g.backward(loss);
            let grads = g.param_grads();
            (
                g.value(h).clone(),
                g.grad(xs).unwrap().clone(),
                g.grad(h0).unwrap().clone(),
                grads,
            )
        };
        let (hf, gxf, ghf, gpf) = run(true);
        let (hr, gxr, ghr, gpr) = run(false);
        let bits = |a: &Tensor, b: &Tensor| {
            a.data().iter().zip(b.data()).all(|(p, q)| p.to_bits() == q.to_bits())
        };
        assert!(bits(&hf, &hr), "forward state differs");
        assert!(bits(&gxf, &gxr), "input gradient differs");
        assert!(bits(&ghf, &ghr), "h0 gradient differs");
        assert_eq!(gpf.len(), gpr.len());
        for ((pa, ga), (pb, gb)) in gpf.iter().zip(&gpr) {
            assert_eq!(pa, pb, "param order differs");
            assert!(bits(ga, gb), "param grad differs");
        }
    }

    #[test]
    fn gru_gradients_flow_through_time() {
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 1, 4, &mut rng());
        let mut g = Graph::new();
        let xs = g.input(Tensor::from_vec(6, 1, vec![0.5; 6]));
        let states = run(&mut g, &store, &cell, 6, false, |g, t, _| g.row(xs, t));
        let last = states[5];
        let loss = g.sum_all(last);
        g.backward(loss);
        let grad = g.grad(xs).unwrap();
        // Every time step influences the last state.
        for r in 0..6 {
            assert!(grad.row(r)[0].abs() > 0.0, "no gradient at step {r}");
        }
    }

    #[test]
    fn gru_learns_last_token_identity() {
        // Predict the last input bit: trivially learnable, checks training.
        let mut r = rng();
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, "g", 1, 5, &mut r);
        let head = Linear::new(&mut store, "h", 5, 1, &mut r);
        let mut opt = Adam::new(0.05);
        let mut last_loss = f32::INFINITY;
        for _ in 0..150 {
            let seq: Vec<f32> = (0..4).map(|_| if r.gen_bool(0.5) { 1.0 } else { 0.0 }).collect();
            let label = seq[3];
            let mut g = Graph::new();
            let xs = g.leaf(Tensor::from_vec(4, 1, seq));
            let states = run(&mut g, &store, &cell, 4, false, |g, t, _| g.row(xs, t));
            let last = states[3];
            let logit = head.forward(&mut g, &store, last);
            let loss = g.bce_with_logits(logit, Tensor::row_vector(&[label]));
            last_loss = g.value(loss).scalar();
            g.backward(loss);
            let grads = g.param_grads();
            opt.step(&mut store, &grads);
        }
        assert!(last_loss < 0.25, "did not learn identity: {last_loss}");
    }
}
