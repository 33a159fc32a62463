//! Optimizers and gradient clipping.
//!
//! The paper trains with gradient clipping at a global-norm threshold of
//! 5.0 (§VII-A2); [`clip_global_norm`] implements exactly that. Every
//! model trains with [`Adam`].

// Optimizer state is keyed by `ParamId` in a `BTreeMap`: any iteration
// over it (debug dumps, future state serialization) is id-ordered by
// construction, so no hash-order can ever reach trained parameters.
use std::collections::BTreeMap;

use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Rescales all gradients so their concatenated L2 norm is at most
/// `max_norm`. Returns the pre-clip global norm (saturating to
/// `f32::INFINITY` only when the true `f64` norm exceeds `f32::MAX`).
///
/// The norm is accumulated in `f64`: with an `f32` accumulator, gradients
/// near `f32::MAX` overflowed `total` to infinity, which made
/// `scale = max_norm / total` collapse to `0` and *zeroed* every gradient
/// instead of clipping it — exactly the step where clipping matters most.
pub fn clip_global_norm(grads: &mut [(ParamId, Tensor)], max_norm: f32) -> f32 {
    let total = grads.iter().map(|(_, g)| g.norm_sq_f64()).sum::<f64>().sqrt();
    if total > max_norm as f64 && total > 0.0 {
        let scale = (max_norm as f64 / total) as f32;
        for (_, g) in grads.iter_mut() {
            for x in g.data_mut() {
                *x *= scale;
            }
        }
    }
    total as f32
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    t: u64,
    m: BTreeMap<ParamId, Tensor>,
    v: BTreeMap<ParamId, Tensor>,
}

impl Adam {
    /// Adam with standard hyper-parameters (β1=0.9, β2=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: BTreeMap::new(), v: BTreeMap::new() }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update step.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[(ParamId, Tensor)]) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (pid, grad) in grads {
            let m = self
                .m
                .entry(*pid)
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            for (mi, &gi) in m.data_mut().iter_mut().zip(grad.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            }
            let v = self
                .v
                .entry(*pid)
                .or_insert_with(|| Tensor::zeros(grad.rows(), grad.cols()));
            for (vi, &gi) in v.data_mut().iter_mut().zip(grad.data()) {
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let m = &self.m[pid];
            let v = &self.v[pid];
            let target = store.get_mut(*pid);
            for ((w, &mi), &vi) in target.data_mut().iter_mut().zip(m.data()).zip(v.data()) {
                let m_hat = mi / b1t;
                let v_hat = vi / b2t;
                *w -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn quadratic_grad(store: &ParamStore, pid: ParamId) -> Vec<(ParamId, Tensor)> {
        // loss = sum(w^2); grad = 2w
        let mut g = Graph::new();
        let w = g.param(store, pid);
        let sq = g.mul(w, w);
        let loss = g.sum_all(sq);
        g.backward(loss);
        g.param_grads()
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Tensor::row_vector(&[4.0, -3.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let grads = quadratic_grad(&store, pid);
            opt.step(&mut store, &grads);
        }
        assert!(store.get(pid).norm() < 1e-2, "did not converge: {:?}", store.get(pid));
    }

    #[test]
    fn clip_rescales_only_above_threshold() {
        let mut store = ParamStore::new();
        let p1 = store.add("a", Tensor::row_vector(&[0.0]));
        let p2 = store.add("b", Tensor::row_vector(&[0.0]));
        let mut grads = vec![
            (p1, Tensor::row_vector(&[3.0])),
            (p2, Tensor::row_vector(&[4.0])),
        ];
        let norm = clip_global_norm(&mut grads, 5.0);
        assert!((norm - 5.0).abs() < 1e-6);
        // exactly at the threshold: unchanged
        assert_eq!(grads[0].1.data(), &[3.0]);

        let mut grads = vec![
            (p1, Tensor::row_vector(&[6.0])),
            (p2, Tensor::row_vector(&[8.0])),
        ];
        let norm = clip_global_norm(&mut grads, 5.0);
        assert!((norm - 10.0).abs() < 1e-5);
        let clipped: f32 =
            grads.iter().map(|(_, g)| g.norm_sq()).sum::<f32>().sqrt();
        assert!((clipped - 5.0).abs() < 1e-5);
    }

    #[test]
    fn clip_survives_gradients_near_f32_max() {
        // Regression: an f32 accumulator overflowed `total` to inf, making
        // `scale = max_norm / inf = 0` and zeroing every gradient.
        let mut store = ParamStore::new();
        let p1 = store.add("a", Tensor::row_vector(&[0.0, 0.0]));
        let p2 = store.add("b", Tensor::row_vector(&[0.0]));
        let mut grads = vec![
            (p1, Tensor::row_vector(&[3.0e38, -3.0e38])),
            (p2, Tensor::row_vector(&[1.0e38])),
        ];
        let norm = clip_global_norm(&mut grads, 5.0);
        assert!(norm > 0.0, "pre-clip norm must be positive, got {norm}");
        for (_, g) in &grads {
            assert!(
                g.data().iter().all(|x| x.abs() > 0.0 && x.is_finite()),
                "clipped gradients must be nonzero and finite: {:?}",
                g.data()
            );
        }
        let clipped = grads.iter().map(|(_, g)| g.norm_sq_f64()).sum::<f64>().sqrt();
        assert!((clipped - 5.0).abs() < 1e-3, "clipped norm {clipped} != 5.0");
        // Sign is preserved through the rescale.
        assert!(grads[0].1.data()[1] < 0.0);
    }

    #[test]
    fn adam_counts_steps() {
        let mut store = ParamStore::new();
        let pid = store.add("w", Tensor::row_vector(&[1.0]));
        let mut opt = Adam::new(0.01);
        assert_eq!(opt.steps(), 0);
        let grads = quadratic_grad(&store, pid);
        opt.step(&mut store, &grads);
        assert_eq!(opt.steps(), 1);
    }
}
