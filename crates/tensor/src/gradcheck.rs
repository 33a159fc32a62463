//! Finite-difference gradient checking used by the test suites of this
//! crate and the layer crate.
//!
//! [`check_input_gradient`] perturbs each element of an input tensor with a
//! central difference and compares against the analytic gradient produced by
//! [`crate::graph::Graph::backward`]. Tolerances are loose enough for `f32`
//! arithmetic but tight enough to catch any sign/indexing mistake.

use crate::graph::{Graph, NodeId};
use crate::tensor::Tensor;

/// Result of a gradient check: maximum absolute and relative deviation.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric gradient.
    pub max_abs_err: f32,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// Whether the check passes at the given relative tolerance.
    pub fn passes(&self, rel_tol: f32) -> bool {
        self.max_rel_err <= rel_tol
    }
}

/// Checks `d loss / d input` for a scalar-loss computation.
///
/// `build` receives a fresh graph and the gradient-tracked input node, and
/// must return the scalar loss node. It is invoked once per perturbed
/// element plus once for the analytic pass, so keep it small.
pub fn check_input_gradient(
    input: &Tensor,
    eps: f32,
    build: impl Fn(&mut Graph, NodeId) -> NodeId,
) -> GradCheckReport {
    // Analytic gradient.
    let mut g = Graph::new();
    let x = g.input(input.clone());
    let loss = build(&mut g, x);
    assert_eq!(g.value(loss).shape(), (1, 1), "gradcheck requires scalar loss");
    g.backward(loss);
    let analytic = g.grad(x).expect("input must receive a gradient").clone();

    let mut max_abs: f32 = 0.0;
    let mut max_rel: f32 = 0.0;
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;

        let eval = |t: Tensor| {
            let mut g = Graph::new();
            let x = g.input(t);
            let loss = build(&mut g, x);
            g.value(loss).scalar()
        };
        let numeric = (eval(plus) - eval(minus)) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / a.abs().max(numeric.abs()).max(1.0);
        max_abs = max_abs.max(abs);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport { max_abs_err: max_abs, max_rel_err: max_rel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn rand_t(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 1.0, &mut rng)
    }

    #[test]
    fn gradcheck_tanh_chain() {
        let x = rand_t(2, 3, 1);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let t = g.tanh(x);
            let s = g.sigmoid(t);
            g.sum_all(s)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_matmul_left_and_right() {
        let x = rand_t(2, 3, 2);
        let w = rand_t(3, 2, 3);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let w = g.leaf(w.clone());
            let y = g.matmul(x, w);
            let t = g.tanh(y);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");

        let x2 = rand_t(3, 2, 4);
        let a = rand_t(2, 3, 5);
        let report = check_input_gradient(&x2, EPS, |g, x| {
            let a = g.leaf(a.clone());
            let y = g.matmul(a, x);
            let t = g.sigmoid(y);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_softmax_rows() {
        let x = rand_t(2, 4, 6);
        let weights = rand_t(2, 4, 7);
        let report = check_input_gradient(&x, 5e-3, |g, x| {
            let s = g.softmax_rows(x);
            let w = g.leaf(weights.clone());
            let m = g.mul(s, w);
            g.sum_all(m)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_log_softmax_nll() {
        let x = rand_t(3, 4, 8);
        let report = check_input_gradient(&x, 5e-3, |g, x| {
            let lp = g.log_softmax_rows(x);
            g.pick_nll(lp, vec![0, 2, 3])
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_bce_with_logits() {
        let x = rand_t(1, 5, 9);
        let targets = Tensor::row_vector(&[1.0, 0.0, 1.0, 0.0, 1.0]);
        let report = check_input_gradient(&x, EPS, |g, x| {
            g.bce_with_logits(x, targets.clone())
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_concat_and_slice() {
        let x = rand_t(3, 2, 10);
        let other = rand_t(2, 2, 11);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let o = g.leaf(other.clone());
            let v = g.vcat(x, o);
            let s = g.row_slice(v, 1, 4);
            let t = g.tanh(s);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");

        let report = check_input_gradient(&x, EPS, |g, x| {
            let o = g.leaf(rand_t(3, 3, 12));
            let h = g.hcat(x, o);
            let t = g.sigmoid(h);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_unfold_mean() {
        let x = rand_t(5, 2, 13);
        let proj = rand_t(6, 3, 14);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let u = g.unfold(x, 3);
            let p = g.leaf(proj.clone());
            let y = g.matmul(u, p);
            let m = g.mean_rows(y);
            let t = g.tanh(m);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_gather_repeat_rowops() {
        let x = rand_t(4, 3, 15);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let picked = g.gather_rows(x, vec![1, 3, 1]);
            let m = g.mean_rows(picked);
            let t = g.tanh(m);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_row_broadcast_ops() {
        let x = rand_t(1, 4, 16);
        let base = rand_t(3, 4, 17);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let b = g.leaf(base.clone());
            let y = g.add_row(b, x);
            let t = g.tanh(y);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_sub_scale_transpose() {
        let x = rand_t(2, 3, 18);
        let other = rand_t(3, 2, 19);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let t = g.transpose(x);
            let o = g.leaf(other.clone());
            let d = g.sub(t, o);
            let s = g.scale(d, 0.7);
            let sq = g.mul(s, s);
            g.sum_all(sq)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_relu() {
        // Shift away from zero so the kink doesn't break finite differences.
        let mut x = rand_t(2, 3, 20);
        for v in x.data_mut() {
            *v = if *v >= 0.0 { *v + 0.5 } else { *v - 0.5 };
        }
        let report = check_input_gradient(&x, 1e-3, |g, x| {
            let r = g.relu(x);
            let s = g.sum_all(r);
            g.scale(s, 0.5)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_exp_ln_chain() {
        let x = rand_t(2, 3, 22);
        let report = check_input_gradient(&x, 1e-3, |g, x| {
            let e = g.exp(x);
            let shifted = g.add_scalar(e, 1.0); // keep ln input positive
            let l = g.ln(shifted);
            g.sum_all(l)
        });
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn gradcheck_sum_rows_mean_rows() {
        let x = rand_t(3, 4, 21);
        let report = check_input_gradient(&x, EPS, |g, x| {
            let m = g.mean_rows(x);
            let t = g.tanh(m);
            g.sum_all(t)
        });
        assert!(report.passes(TOL), "{report:?}");
    }
}
