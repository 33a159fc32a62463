//! Property-based tests for the autograd engine: algebraic identities of
//! tensor ops and gradient-correctness over random graphs.
//!
//! Each property is checked over many cases drawn from the workspace PRNG
//! (`nlidb_tensor::Rng`) with a fixed seed, so failures are exactly
//! reproducible from the case index alone.

use std::hint::black_box;

use nlidb_tensor::gradcheck::check_input_gradient;
use nlidb_tensor::{
    pool, set_matmul_kernel, GateAct, Graph, MatmulKernel, NodeId, ParamId, ParamStore, Rng, Tensor,
};

const CASES: u64 = 64;

/// Serializes tests that flip a process-wide switch (the pool width, the
/// trace gate, the matmul kernel), so each test exercises the mode it
/// names.
fn pool_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// True bitwise equality (distinguishes `-0.0` from `0.0`, equates NaN
/// payloads only when identical).
fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data().iter().map(|x| x.to_bits()).eq(b.data().iter().map(|x| x.to_bits()))
}

/// One deterministic generator per (test, case) pair.
fn case_rng(test_seed: u64, case: u64) -> Rng {
    Rng::seed_from_u64(test_seed.wrapping_mul(0x100000001b3) ^ case)
}

fn arb_tensor(rng: &mut Rng, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

#[test]
fn matmul_identity_left_and_right() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let a = arb_tensor(&mut rng, 3, 3);
        let mut id = Tensor::zeros(3, 3);
        for i in 0..3 {
            id.set(i, i, 1.0);
        }
        assert_eq!(&a.matmul(&id), &a, "case {case}");
        assert_eq!(&id.matmul(&a), &a, "case {case}");
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let a = arb_tensor(&mut rng, 2, 3);
        let b = arb_tensor(&mut rng, 3, 2);
        let c = arb_tensor(&mut rng, 3, 2);
        // a(b + c) == ab + ac (within f32 tolerance)
        let bc = b.zip(&c, |x, y| x + y);
        let left = a.matmul(&bc);
        let right = {
            let ab = a.matmul(&b);
            let ac = a.matmul(&c);
            ab.zip(&ac, |x, y| x + y)
        };
        for (l, r) in left.data().iter().zip(right.data()) {
            assert!((l - r).abs() < 1e-4, "case {case}: {l} vs {r}");
        }
    }
}

#[test]
fn transpose_preserves_norm() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let a = arb_tensor(&mut rng, 3, 4);
        assert!((a.norm() - a.transpose().norm()).abs() < 1e-5, "case {case}");
    }
}

#[test]
fn softmax_rows_are_distributions() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let a = arb_tensor(&mut rng, 3, 5);
        let mut g = Graph::new();
        let x = g.leaf(a);
        let s = g.softmax_rows(x);
        let v = g.value(s);
        for r in 0..v.rows() {
            let sum: f32 = v.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "case {case}");
            assert!(v.row(r).iter().all(|&p| (0.0..=1.0).contains(&p)), "case {case}");
        }
    }
}

#[test]
fn add_commutes_and_scale_distributes() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let a = arb_tensor(&mut rng, 2, 4);
        let b = arb_tensor(&mut rng, 2, 4);
        let s = rng.gen_range(-3.0f32..3.0);
        let mut g = Graph::new();
        let an = g.leaf(a.clone());
        let bn = g.leaf(b.clone());
        let ab = g.add(an, bn);
        let ba = g.add(bn, an);
        assert_eq!(g.value(ab), g.value(ba), "case {case}");
        let sab = g.scale(ab, s);
        let sa = g.scale(an, s);
        let sb = g.scale(bn, s);
        let sab2 = g.add(sa, sb);
        for (x, y) in g.value(sab).data().iter().zip(g.value(sab2).data()) {
            assert!((x - y).abs() < 1e-4, "case {case}");
        }
    }
}

#[test]
fn gradients_match_finite_differences_on_random_graphs() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let x = arb_tensor(&mut rng, 2, 3);
        let w = arb_tensor(&mut rng, 3, 3);
        // loss = sum(tanh(x @ w) * sigmoid(x))-ish composite
        let report = check_input_gradient(&x, 1e-2, |g, xn| {
            let wn = g.leaf(w.clone());
            let y = g.matmul(xn, wn);
            let t = g.tanh(y);
            let s = g.sigmoid(xn);
            let m = g.mul(t, s);
            g.sum_all(m)
        });
        assert!(report.passes(0.05), "case {case}: {report:?}");
    }
}

#[test]
fn backward_is_deterministic() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let x = arb_tensor(&mut rng, 2, 2);
        let run = || {
            let mut g = Graph::new();
            let xn = g.input(x.clone());
            let t = g.tanh(xn);
            let loss = g.sum_all(t);
            g.backward(loss);
            g.grad(xn).unwrap().clone()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn tensor_ops_run_on_the_calling_thread() {
    let _guard = pool_lock();
    let mut rng = case_rng(9, 0);
    let a = arb_tensor(&mut rng, 256, 256);
    let b = arb_tensor(&mut rng, 256, 256);
    pool::set_threads(4);
    nlidb_trace::reset();
    nlidb_trace::set_enabled(true);
    // A 256×256 product (~16.8M multiply-adds), a 64K-element map and
    // zip, and a product's backward: each op is larger than anything the
    // models run, and none may hand work to the pool.
    black_box(a.matmul(&b));
    black_box(a.map(|x| (x * 1.3).tanh()));
    black_box(a.zip(&b, |x, y| x * y + 0.25 * x));
    let mut g = Graph::new();
    let an = g.input(a.clone());
    let bn = g.input(b.clone());
    let c = g.matmul(an, bn);
    let t = g.tanh(c);
    let loss = g.sum_all(t);
    g.backward(loss);
    let counters = ["pool.jobs", "pool.tasks", "pool.serial_tasks"].map(nlidb_trace::counter);
    nlidb_trace::set_enabled(false);
    nlidb_trace::reset();
    pool::set_threads(pool::default_threads());
    assert_eq!(counters, [0, 0, 0], "pool.jobs, pool.tasks, pool.serial_tasks");
}

/// Restores the global kernel knob on drop so a failing assertion cannot
/// leak `Reference` mode into sibling tests.
struct KernelGuard {
    _pool: std::sync::MutexGuard<'static, ()>,
}

impl KernelGuard {
    fn new() -> Self {
        KernelGuard { _pool: pool_lock() }
    }
}

impl Drop for KernelGuard {
    fn drop(&mut self) {
        set_matmul_kernel(MatmulKernel::Auto);
    }
}

#[test]
fn blocked_matmul_matches_reference_kernel_on_odd_shapes() {
    let _guard = KernelGuard::new();
    // Shapes chosen to hit every dispatch edge: single row (1×K), single
    // column (K×1), inner dim 1, non-multiple-of-tile dims straddling the
    // 4×16 microkernel, and sizes both below and above the blocked
    // kernel's work threshold.
    let shapes: [(usize, usize, usize); 10] = [
        (1, 300, 777),
        (1, 512, 1024),
        (64, 80, 1),
        (97, 1, 33),
        (3, 5, 7),
        (4, 16, 16),
        (13, 64, 130),
        (37, 41, 129),
        (65, 33, 47),
        (96, 112, 80),
    ];
    for (case, &(m, k, n)) in shapes.iter().enumerate() {
        let mut rng = case_rng(12, case as u64);
        let a = arb_tensor(&mut rng, m, k);
        let b = arb_tensor(&mut rng, k, n);
        set_matmul_kernel(MatmulKernel::Reference);
        let reference = a.matmul(&b);
        set_matmul_kernel(MatmulKernel::Auto);
        let fast = a.matmul(&b);
        assert!(
            bitwise_eq(&reference, &fast),
            "case {case} ({m}x{k} @ {k}x{n}): blocked kernel differs from the reference kernel"
        );
    }
}

/// Unfused composition of [`Graph::fused_gate`] (same as the one the
/// graph's own unit tests check against), usable at serving batch = 1.
fn gate_reference(
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

#[test]
fn fused_gru_kernels_are_bitwise_stable_across_threads() {
    // Dims far above the model widths, so every gate product and both
    // backward products are large: the fused kernels must still match the
    // unfused composition bit for bit.
    let (k, d) = (512, 640);
    let mut rng = case_rng(15, 0);
    let xs = arb_tensor(&mut rng, 1, k);
    let wxs = arb_tensor(&mut rng, k, d);
    let hs = arb_tensor(&mut rng, 1, d);
    let whs = arb_tensor(&mut rng, d, d);
    let bs = arb_tensor(&mut rng, 1, d);
    let run = |fused: bool| {
        let mut g = Graph::new();
        let x = g.input(xs.clone());
        let wx = g.input(wxs.clone());
        let h = g.input(hs.clone());
        let wh = g.input(whs.clone());
        let b = g.input(bs.clone());
        let z = if fused {
            g.fused_gate(x, wx, h, wh, b, GateAct::Sigmoid)
        } else {
            gate_reference(&mut g, x, wx, h, wh, b, GateAct::Sigmoid)
        };
        let n = if fused {
            g.fused_gate(x, wx, h, wh, b, GateAct::Tanh)
        } else {
            gate_reference(&mut g, x, wx, h, wh, b, GateAct::Tanh)
        };
        let out = if fused {
            g.fused_gru_combine(z, n, h)
        } else {
            let (rows, cols) = g.value(z).shape();
            let ones = g.leaf(Tensor::full(rows, cols, 1.0));
            let omz = g.sub(ones, z);
            let a = g.mul(omz, n);
            let b2 = g.mul(z, h);
            g.add(a, b2)
        };
        let loss = g.sum_all(out);
        g.backward(loss);
        (
            g.value(out).clone(),
            g.grad(x).unwrap().clone(),
            g.grad(wx).unwrap().clone(),
            g.grad(h).unwrap().clone(),
            g.grad(wh).unwrap().clone(),
            g.grad(b).unwrap().clone(),
        )
    };
    let fused = run(true);
    let naive = run(false);
    let tensors = |t: &(Tensor, Tensor, Tensor, Tensor, Tensor, Tensor)| {
        [&t.0, &t.1, &t.2, &t.3, &t.4, &t.5].map(Clone::clone)
    };
    for (i, (f, n)) in tensors(&fused).iter().zip(tensors(&naive).iter()).enumerate() {
        assert!(bitwise_eq(f, n), "tensor {i}: fused GRU kernel differs from the unfused reference");
    }
}

#[test]
fn exp_ln_inverse_on_positive() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let data: Vec<f32> = (0..6).map(|_| rng.gen_range(0.1f32..5.0)).collect();
        let t = Tensor::from_vec(2, 3, data);
        let mut g = Graph::new();
        let xn = g.leaf(t.clone());
        let l = g.ln(xn);
        let e = g.exp(l);
        for (a, b) in g.value(e).data().iter().zip(t.data()) {
            assert!((a - b).abs() < 1e-4, "case {case}");
        }
    }
}

/// What one pass over a random tape leaves behind: the loss, the
/// gradients of the two tracked embedding blocks, and the number of
/// parameters `param_grads` reports.
struct TapeOutcome {
    loss: Tensor,
    input_grads: [Option<Tensor>; 2],
    param_grads: usize,
}

/// Builds, runs and differentiates one seeded random tape of the ops mention
/// localization uses: two embedding blocks gathered from parameters and
/// passed through `track`, then a random chain of `matmul`, `add_row`,
/// `fused_gate` (either activation), `hcat`, `vcat`, `row_slice`, `tanh`,
/// `sigmoid` and `softmax_rows`, reduced to one logit under
/// `bce_with_logits`. The draws do not depend on the tape mode, so the
/// training and frozen passes of a case build the same ops. Every
/// parameter is bound twice, and the ops read the second binding: a frozen
/// tape must hand back its first node, a training tape push a second.
fn random_tape_pass(case: u64, frozen: bool) -> TapeOutcome {
    fn param(store: &mut ParamStore, rng: &mut Rng, rows: usize, cols: usize) -> ParamId {
        let name = format!("p{}", store.len());
        store.add(name, arb_tensor(rng, rows, cols))
    }
    fn bind(g: &mut Graph, store: &ParamStore, id: ParamId, frozen: bool) -> NodeId {
        let first = g.param(store, id);
        let len = g.len();
        let second = g.param(store, id);
        if frozen {
            assert_eq!((second, g.len()), (first, len), "a frozen tape bound a parameter twice");
        } else {
            assert_eq!(g.len(), len + 1, "a training tape must push a node per bind");
        }
        second
    }
    let mut rng = case_rng(40, case);
    let mut store = ParamStore::new();
    let mut g = if frozen { Graph::frozen() } else { Graph::new() };
    let n = rng.gen_range(1..5usize);
    let [words, chars] = [(); 2].map(|()| {
        let width = rng.gen_range(1..5usize);
        let table = param(&mut store, &mut rng, 6, width);
        let ids: Vec<usize> = (0..n).map(|_| rng.gen_range(0..6usize)).collect();
        let table = bind(&mut g, &store, table, frozen);
        let rows = g.gather_rows(table, ids);
        let len = g.len();
        let tracked = g.track(rows);
        if !frozen {
            assert_eq!(tracked, rows, "case {case}: track must return a tracked node");
            assert_eq!(g.len(), len, "case {case}: track added a node to a training tape");
        }
        tracked
    });
    let mut x = g.hcat(words, chars);
    for _ in 0..rng.gen_range(2..9usize) {
        let (rows, cols) = g.value(x).shape();
        x = match rng.gen_range(0..8usize) {
            0 => {
                let k = rng.gen_range(1..5usize);
                let w = param(&mut store, &mut rng, cols, k);
                let w = bind(&mut g, &store, w, frozen);
                g.matmul(x, w)
            }
            1 => {
                let b = param(&mut store, &mut rng, 1, cols);
                let b = bind(&mut g, &store, b, frozen);
                g.add_row(x, b)
            }
            2 => g.tanh(x),
            3 => g.sigmoid(x),
            4 => g.softmax_rows(x),
            5 => {
                let (k, kh) = (rng.gen_range(1..5usize), rng.gen_range(1..4usize));
                let wx = param(&mut store, &mut rng, cols, k);
                let wh = param(&mut store, &mut rng, kh, k);
                let b = param(&mut store, &mut rng, 1, k);
                // The recurrent input is a constant or depends on `x`.
                let h = if rng.gen_bool(0.5) {
                    g.leaf(arb_tensor(&mut rng, rows, kh))
                } else {
                    let wp = param(&mut store, &mut rng, cols, kh);
                    let wp = bind(&mut g, &store, wp, frozen);
                    g.matmul(x, wp)
                };
                let act = if rng.gen_bool(0.5) { GateAct::Sigmoid } else { GateAct::Tanh };
                let [wx, wh, b] = [wx, wh, b].map(|p| bind(&mut g, &store, p, frozen));
                g.fused_gate(x, wx, h, wh, b, act)
            }
            6 => {
                let y = if rng.gen_bool(0.5) {
                    g.tanh(x)
                } else {
                    g.leaf(arb_tensor(&mut rng, rows, 2))
                };
                if rng.gen_bool(0.5) {
                    g.hcat(x, y)
                } else {
                    g.hcat(y, x)
                }
            }
            _ => {
                if rows > 1 && (rows >= 6 || rng.gen_bool(0.5)) {
                    let a = rng.gen_range(0..rows);
                    let b = rng.gen_range(a + 1..rows + 1);
                    g.row_slice(x, a, b)
                } else {
                    let y = g.sigmoid(x);
                    g.vcat(x, y)
                }
            }
        };
    }
    let (rows, cols) = g.value(x).shape();
    let r = rng.gen_range(0..rows);
    let row = g.row_slice(x, r, r + 1);
    let w_out = param(&mut store, &mut rng, cols, 1);
    let w_out = bind(&mut g, &store, w_out, frozen);
    let logit = g.matmul(row, w_out);
    let target = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
    let loss = g.bce_with_logits(logit, Tensor::row_vector(&[target]));
    g.backward(loss);
    TapeOutcome {
        loss: g.value(loss).clone(),
        input_grads: [words, chars].map(|t| g.grad(t).cloned()),
        param_grads: g.param_grads().len(),
    }
}

#[test]
fn frozen_tapes_give_training_tape_input_gradients_bit_for_bit() {
    let mut nonzero = 0;
    for case in 0..CASES {
        let training = random_tape_pass(case, false);
        let frozen = random_tape_pass(case, true);
        assert!(bitwise_eq(&training.loss, &frozen.loss), "case {case}: loss");
        assert!(training.param_grads > 0, "case {case}: training tape lost its parameters");
        assert_eq!(frozen.param_grads, 0, "case {case}: frozen tape reported parameter gradients");
        for (i, (t, f)) in training.input_grads.iter().zip(&frozen.input_grads).enumerate() {
            let (Some(t), Some(f)) = (t, f) else {
                panic!("case {case}: input block {i} has no gradient")
            };
            assert!(bitwise_eq(t, f), "case {case}: input block {i} gradient differs");
            nonzero += usize::from(t.data().iter().any(|&x| x != 0.0));
        }
    }
    assert!(nonzero > CASES as usize, "too few cases with a nonzero input gradient: {nonzero}");
}
