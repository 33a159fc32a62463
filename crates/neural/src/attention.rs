//! Bahdanau-style additive attention (§V-B decoder, §IV-B(iii) classifier).
//!
//! Computes `e_j = v^T tanh(W1 S_j + W2 q + b)` over memory rows `S_j`
//! given a query `q`, then `α = softmax(e)` and a context vector `α S`.
//! The raw scores are also returned because the paper's copy mechanism adds
//! `exp(e_ij)` mass directly to source-token logits.
//!
//! `W1 S_j` does not depend on the query. A decoder that attends over one
//! memory at every step can compute it once with
//! [`BahdanauAttention::project_memory`] and attend through
//! [`BahdanauAttention::forward_projected`]; the scores, weights and
//! context are bit-for-bit those of [`BahdanauAttention::forward`].

use nlidb_tensor::{Graph, NodeId, ParamId, ParamStore, Tensor};
use nlidb_tensor::Rng;

/// Additive attention with learned projections.
#[derive(Debug, Clone)]
pub struct BahdanauAttention {
    w_mem: ParamId,
    w_query: ParamId,
    b: ParamId,
    v: ParamId,
    mem_dim: usize,
    query_dim: usize,
}

/// Output of one attention application.
#[derive(Debug, Clone, Copy)]
pub struct AttentionOut {
    /// Raw (pre-softmax) scores, `[n, 1]`.
    pub scores: NodeId,
    /// Attention weights, `[1, n]`.
    pub weights: NodeId,
    /// Context vector `α S`, `[1, mem_dim]`.
    pub context: NodeId,
}

impl BahdanauAttention {
    /// Creates the attention parameters.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        mem_dim: usize,
        query_dim: usize,
        attn_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        BahdanauAttention {
            w_mem: store.add(format!("{prefix}.w_mem"), Tensor::xavier(mem_dim, attn_dim, rng)),
            w_query: store
                .add(format!("{prefix}.w_query"), Tensor::xavier(query_dim, attn_dim, rng)),
            b: store.add(format!("{prefix}.b"), Tensor::zeros(1, attn_dim)),
            v: store.add(format!("{prefix}.v"), Tensor::xavier(attn_dim, 1, rng)),
            mem_dim,
            query_dim,
        }
    }

    /// Memory row width this attention expects.
    pub fn mem_dim(&self) -> usize {
        self.mem_dim
    }

    /// Query width this attention expects.
    pub fn query_dim(&self) -> usize {
        self.query_dim
    }

    /// Attends `query` (`[1, query_dim]`) over `memory` (`[n, mem_dim]`):
    /// [`Self::project_memory`], then [`Self::forward_projected`].
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        memory: NodeId,
        query: NodeId,
    ) -> AttentionOut {
        let proj_mem = self.project_memory(g, store, memory);
        self.forward_projected(g, store, memory, proj_mem, query)
    }

    /// The query-independent half of every score, `memory @ W1`
    /// (`[n, attn_dim]`).
    pub fn project_memory(&self, g: &mut Graph, store: &ParamStore, memory: NodeId) -> NodeId {
        assert_eq!(g.value(memory).cols(), self.mem_dim, "attention memory width mismatch");
        let w_mem = g.param(store, self.w_mem);
        g.matmul(memory, w_mem)
    }

    /// [`Self::forward`] given `proj_mem`, the value of
    /// [`Self::project_memory`] for the same `memory` (computed once,
    /// possibly on another tape). Gradients reach `proj_mem` but not
    /// `W1`.
    pub fn forward_projected(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        memory: NodeId,
        proj_mem: NodeId,
        query: NodeId,
    ) -> AttentionOut {
        assert_eq!(g.value(query).cols(), self.query_dim, "attention query width mismatch");
        let w_query = g.param(store, self.w_query);
        let b = g.param(store, self.b);
        let v = g.param(store, self.v);
        let proj_q = g.matmul(query, w_query); // [1, attn]
        let proj_qb = g.add(proj_q, b); // [1, attn]
        let combined = g.add_row(proj_mem, proj_qb); // broadcast query over rows
        let act = g.tanh(combined);
        let scores = g.matmul(act, v); // [n, 1]
        let scores_row = g.transpose(scores); // [1, n]
        let weights = g.softmax_rows(scores_row); // [1, n]
        let context = g.matmul(weights, memory); // [1, mem_dim]
        AttentionOut { scores, weights, context }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(5)
    }

    #[test]
    fn attention_shapes() {
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 6, 4, 5, &mut rng());
        let mut g = Graph::new();
        let memory = g.leaf(Tensor::zeros(7, 6));
        let query = g.leaf(Tensor::zeros(1, 4));
        let out = attn.forward(&mut g, &store, memory, query);
        assert_eq!(g.value(out.scores).shape(), (7, 1));
        assert_eq!(g.value(out.weights).shape(), (1, 7));
        assert_eq!(g.value(out.context).shape(), (1, 6));
    }

    #[test]
    fn attention_weights_are_a_distribution() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 3, 3, 4, &mut r);
        let mut g = Graph::new();
        let memory = g.leaf(Tensor::uniform(5, 3, 1.0, &mut r));
        let query = g.leaf(Tensor::uniform(1, 3, 1.0, &mut r));
        let out = attn.forward(&mut g, &store, memory, query);
        let w = g.value(out.weights);
        let sum: f32 = w.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(w.row(0).iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn context_is_convex_combination_of_memory() {
        // With a single memory row, the context must equal that row.
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 2, 2, 3, &mut rng());
        let mut g = Graph::new();
        let memory = g.leaf(Tensor::row_vector(&[0.3, -0.7]));
        let query = g.leaf(Tensor::row_vector(&[1.0, 1.0]));
        let out = attn.forward(&mut g, &store, memory, query);
        assert_eq!(g.value(out.context).data(), &[0.3, -0.7]);
    }

    #[test]
    fn attention_is_differentiable() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 3, 2, 4, &mut r);
        let mut g = Graph::new();
        let memory = g.input(Tensor::uniform(4, 3, 1.0, &mut r));
        let query = g.input(Tensor::uniform(1, 2, 1.0, &mut r));
        let out = attn.forward(&mut g, &store, memory, query);
        let loss = g.sum_all(out.context);
        g.backward(loss);
        assert!(g.grad(memory).is_some());
        assert!(g.grad(query).is_some());
        assert!(g.param_grads().len() >= 3, "attention params should get grads");
    }

    #[test]
    fn precomputed_projection_gives_forward_bits() {
        let mut r = rng();
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 5, 3, 4, &mut r);
        let memory = Tensor::uniform(6, 5, 1.0, &mut r);
        let query = Tensor::uniform(1, 3, 1.0, &mut r);
        let mut g = Graph::new();
        let m = g.leaf(memory.clone());
        let q = g.leaf(query.clone());
        let direct = attn.forward(&mut g, &store, m, q);
        // The projection comes from another tape, as in beam decoding.
        let mut encode = Graph::new();
        let em = encode.leaf(memory.clone());
        let proj = attn.project_memory(&mut encode, &store, em);
        let mut step = Graph::new();
        let m = step.leaf(memory);
        let p = step.leaf(encode.value(proj).clone());
        let q = step.leaf(query);
        let projected = attn.forward_projected(&mut step, &store, m, p, q);
        let bits = |g: &Graph, n: NodeId| -> Vec<u32> {
            g.value(n).data().iter().map(|x| x.to_bits()).collect()
        };
        for (a, b) in [
            (direct.scores, projected.scores),
            (direct.weights, projected.weights),
            (direct.context, projected.context),
        ] {
            assert_eq!(bits(&g, a), bits(&step, b));
        }
    }

    #[test]
    fn attention_focuses_on_matching_row() {
        // Train the attention to pick out the row equal to the query.
        let mut r = rng();
        let mut store = ParamStore::new();
        let attn = BahdanauAttention::new(&mut store, "a", 2, 2, 6, &mut r);
        let mut opt = nlidb_tensor::optim::Adam::new(0.05);
        for _ in 0..300 {
            let target_row = r.gen_range(0..3usize);
            let mut mem = Tensor::zeros(3, 2);
            for row in 0..3 {
                mem.set(row, 0, if row == target_row { 1.0 } else { 0.0 });
                mem.set(row, 1, r.gen_range(-0.1..0.1));
            }
            let mut g = Graph::new();
            let memory = g.leaf(mem);
            let query = g.leaf(Tensor::row_vector(&[1.0, 0.0]));
            let out = attn.forward(&mut g, &store, memory, query);
            let scores_row = g.transpose(out.scores);
            let logp = g.log_softmax_rows(scores_row);
            let loss = g.pick_nll(logp, vec![target_row]);
            g.backward(loss);
            let grads = g.param_grads();
            opt.step(&mut store, &grads);
        }
        // Evaluate: attention weight on the marked row should dominate.
        let mut correct = 0;
        for target_row in 0..3 {
            let mut mem = Tensor::zeros(3, 2);
            mem.set(target_row, 0, 1.0);
            let mut g = Graph::new();
            let memory = g.leaf(mem);
            let query = g.leaf(Tensor::row_vector(&[1.0, 0.0]));
            let out = attn.forward(&mut g, &store, memory, query);
            if g.value(out.weights).argmax_row(0) == target_row {
                correct += 1;
            }
        }
        assert_eq!(correct, 3, "attention failed to learn row matching");
    }
}
