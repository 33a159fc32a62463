//! Property-based tests for the autograd engine: algebraic identities of
//! tensor ops and gradient-correctness over random graphs.
//!
//! Each property is checked over many cases drawn from the workspace PRNG
//! (`nlidb_tensor::Rng`) with a fixed seed, so failures are exactly
//! reproducible from the case index alone.

use nlidb_tensor::gradcheck::check_input_gradient;
use nlidb_tensor::{pool, set_matmul_kernel, GateAct, Graph, MatmulKernel, NodeId, Rng, Tensor};

const CASES: u64 = 64;

/// Serializes tests that flip the global pool size. Safe either way —
/// every parallel op is bitwise equal to serial by contract — but holding
/// the lock keeps each test actually exercising the mode it names.
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
fn parallel_matmul_is_bitwise_equal_to_serial() {
    let _guard = pool_lock();
    // Fewer cases than CASES: each case multiplies matrices large enough
    // to cross the fan-out threshold.
    for case in 0..8 {
        let mut rng = case_rng(9, case);
        let m = rng.gen_range(48..160usize);
        let k = rng.gen_range(48..160usize);
        let n = rng.gen_range(48..160usize);
        let a = arb_tensor(&mut rng, m, k);
        let b = arb_tensor(&mut rng, k, n);
        pool::set_threads(1);
        let serial = a.matmul(&b);
        for threads in [2, 4, 7] {
            pool::set_threads(threads);
            let parallel = a.matmul(&b);
            assert!(
                bitwise_eq(&serial, &parallel),
                "case {case}: {threads}-thread matmul differs from serial"
            );
        }
    }
    pool::set_threads(pool::default_threads());
}

#[test]
fn parallel_map_zip_are_bitwise_equal_to_serial() {
    let _guard = pool_lock();
    for case in 0..8 {
        let mut rng = case_rng(10, case);
        let rows = rng.gen_range(64..256usize);
        let cols = rng.gen_range(80..256usize);
        let a = arb_tensor(&mut rng, rows, cols);
        let b = arb_tensor(&mut rng, rows, cols);
        pool::set_threads(1);
        let map_serial = a.map(|x| (x * 1.3).tanh());
        let zip_serial = a.zip(&b, |x, y| x * y + 0.25 * x);
        pool::set_threads(4);
        let map_parallel = a.map(|x| (x * 1.3).tanh());
        let zip_parallel = a.zip(&b, |x, y| x * y + 0.25 * x);
        assert!(bitwise_eq(&map_serial, &map_parallel), "case {case}: map differs");
        assert!(bitwise_eq(&zip_serial, &zip_parallel), "case {case}: zip differs");
    }
    pool::set_threads(pool::default_threads());
}

#[test]
fn parallel_backward_is_bitwise_equal_to_serial() {
    let _guard = pool_lock();
    for case in 0..6 {
        let mut rng = case_rng(11, case);
        let m = rng.gen_range(48..128usize);
        let k = rng.gen_range(48..128usize);
        let n = rng.gen_range(48..128usize);
        let a = arb_tensor(&mut rng, m, k);
        let b = arb_tensor(&mut rng, k, n);
        let run = || {
            let mut g = Graph::new();
            let an = g.input(a.clone());
            let bn = g.input(b.clone());
            let c = g.matmul(an, bn);
            let t = g.tanh(c);
            let loss = g.sum_all(t);
            g.backward(loss);
            (g.grad(an).unwrap().clone(), g.grad(bn).unwrap().clone())
        };
        pool::set_threads(1);
        let (da_s, db_s) = run();
        for threads in [2, 5] {
            pool::set_threads(threads);
            let (da_p, db_p) = run();
            assert!(
                bitwise_eq(&da_s, &da_p) && bitwise_eq(&db_s, &db_p),
                "case {case}: {threads}-thread backward differs from serial"
            );
        }
    }
    pool::set_threads(pool::default_threads());
}

/// Restores the global kernel knob (and pool size) on drop so a failing
/// assertion cannot leak `Reference` mode into sibling tests.
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
        pool::set_threads(pool::default_threads());
    }
}

#[test]
fn blocked_matmul_matches_reference_kernel_on_odd_shapes() {
    let _guard = KernelGuard::new();
    // Shapes chosen to hit every dispatch edge: single row (1×K), single
    // column (K×1), inner dim 1, non-multiple-of-tile dims straddling the
    // 4×16 microkernel, and sizes both below and above the blocked/parallel
    // work thresholds.
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
        pool::set_threads(1);
        let reference = a.matmul(&b);
        set_matmul_kernel(MatmulKernel::Auto);
        for threads in [1, 2, 4, 7] {
            pool::set_threads(threads);
            let fast = a.matmul(&b);
            assert!(
                bitwise_eq(&reference, &fast),
                "case {case} ({m}x{k} @ {k}x{n}): blocked kernel at {threads} \
                 threads differs from the serial reference kernel"
            );
        }
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
    let _guard = KernelGuard::new();
    // Dims large enough that the gate matmuls cross the parallel-work
    // threshold, so the fused path is exercised with real fan-out.
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
    pool::set_threads(1);
    let fused_serial = run(true);
    let naive_serial = run(false);
    let tensors = |t: &(Tensor, Tensor, Tensor, Tensor, Tensor, Tensor)| {
        [&t.0, &t.1, &t.2, &t.3, &t.4, &t.5].map(Clone::clone)
    };
    for (i, (f, n)) in
        tensors(&fused_serial).iter().zip(tensors(&naive_serial).iter()).enumerate()
    {
        assert!(
            bitwise_eq(f, n),
            "tensor {i}: serial fused GRU kernel differs from the serial \
             unfused reference"
        );
    }
    for threads in [2, 4, 6] {
        pool::set_threads(threads);
        let fused_par = run(true);
        for (i, (f, n)) in
            tensors(&fused_par).iter().zip(tensors(&naive_serial).iter()).enumerate()
        {
            assert!(
                bitwise_eq(f, n),
                "tensor {i}: fused GRU kernel at {threads} threads differs \
                 from the serial unfused reference"
            );
        }
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
