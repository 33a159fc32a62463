//! Affine layers and multi-layer perceptrons.

use nlidb_tensor::{Graph, NodeId, ParamId, ParamStore, Tensor};
use nlidb_tensor::Rng;

/// A learned affine transform `y = x W + b` applied row-wise.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers parameters under `"{prefix}.w"` / `"{prefix}.b"`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add(format!("{prefix}.w"), Tensor::xavier(in_dim, out_dim, rng));
        let b = store.add(format!("{prefix}.b"), Tensor::zeros(1, out_dim));
        Linear { w, b, in_dim, out_dim }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the transform to a `[n, in_dim]` node, yielding `[n, out_dim]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        assert_eq!(
            g.value(x).cols(),
            self.in_dim,
            "linear input width {} != expected {}",
            g.value(x).cols(),
            self.in_dim
        );
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// Activation functions selectable in an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Applies the activation on the graph.
    pub fn apply(self, g: &mut Graph, x: NodeId) -> NodeId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Tanh => g.tanh(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// A feed-forward stack of [`Linear`] layers with a hidden activation.
///
/// The final layer is linear (no activation) so the output can be used as
/// logits; the paper's value-detection classifier (§IV-D) is
/// `Sigmoid(W2 ReLU(W1 x + b1) + b2)`, i.e. an `Mlp` with
/// [`Activation::Relu`] hidden units followed by a sigmoid applied by the
/// caller (or folded into a BCE-with-logits loss).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    hidden_activation: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        dims: &[usize],
        hidden_activation: Activation,
        rng: &mut Rng,
    ) -> Self {
        assert!(dims.len() >= 2, "mlp needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{prefix}.l{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, hidden_activation }
    }

    /// Output width of the final layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Forward pass; returns raw logits of the last layer.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let mut h = x;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(g, store, h);
            if i < last {
                h = self.hidden_activation.apply(g, h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "lin", 3, 5, &mut rng());
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(4, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (4, 5));
    }

    #[test]
    fn linear_zero_input_yields_bias() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "lin", 2, 2, &mut rng());
        // Overwrite bias with known values.
        let b = store.id_of("lin.b").unwrap();
        *store.get_mut(b) = Tensor::row_vector(&[0.5, -0.5]);
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(1, 2));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).data(), &[0.5, -0.5]);
    }

    #[test]
    #[should_panic(expected = "linear input width")]
    fn linear_width_mismatch_panics() {
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "lin", 3, 5, &mut rng());
        let mut g = Graph::new();
        let x = g.leaf(Tensor::zeros(1, 4));
        lin.forward(&mut g, &store, x);
    }

    #[test]
    fn mlp_learns_xor() {
        // Classic sanity check that composed layers + BCE train end to end.
        let mut r = rng();
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "xor", &[2, 8, 1], Activation::Tanh, &mut r);
        let mut opt = nlidb_tensor::optim::Adam::new(0.05);
        let inputs = Tensor::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let targets = Tensor::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut last_loss = f32::INFINITY;
        for _ in 0..400 {
            let mut g = Graph::new();
            let x = g.leaf(inputs.clone());
            let logits = mlp.forward(&mut g, &store, x);
            let loss = g.bce_with_logits(logits, targets.clone());
            last_loss = g.value(loss).scalar();
            g.backward(loss);
            let grads = g.param_grads();
            opt.step(&mut store, &grads);
        }
        assert!(last_loss < 0.1, "xor did not converge: loss {last_loss}");
        // Check predictions.
        let mut g = Graph::new();
        let x = g.leaf(inputs);
        let logits = mlp.forward(&mut g, &store, x);
        let probs = g.sigmoid(logits);
        let p = g.value(probs);
        for (i, &t) in [0.0, 1.0, 1.0, 0.0].iter().enumerate() {
            let pred = if p.get(i, 0) > 0.5 { 1.0 } else { 0.0 };
            assert_eq!(pred, t, "row {i} misclassified (p = {})", p.get(i, 0));
        }
    }

    #[test]
    fn mlp_out_dim() {
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[4, 6, 3], Activation::Relu, &mut rng());
        assert_eq!(mlp.out_dim(), 3);
    }
}
