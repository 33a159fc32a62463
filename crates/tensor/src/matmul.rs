//! Blocked matmul fast path with a packed-B layout and SIMD dispatch.
//!
//! [`Tensor::matmul`](crate::Tensor::matmul) routes through
//! `matmul_into`, which picks between two kernels:
//!
//! - **Scalar reference** — the original i-k-j loop (`scalar_row_into`),
//!   still the semantic ground truth, and the path of every product too
//!   small to repay packing B.
//! - **Blocked** — for `M >= MR`, B is packed into column panels of
//!   width `NR` so the micro-kernel streams contiguous memory, and an
//!   `MR x NR` register tile accumulates `MR` output rows at once.
//!
//! Both run on the calling thread. The pool fans out across independent
//! items (minibatch examples, served tables, corpus shards), never inside
//! one product: at the model widths this reproduction trains (hidden
//! 48–64), no product comes near the size at which splitting its rows
//! would pay for a fan-out.
//!
//! ## The reduction-order invariant
//!
//! Every kernel computes each output cell `out[i][j]` as the strictly
//! sequential sum `((0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j]) + ...` — the
//! same association the scalar reference uses. Blocking and packing change
//! *which cells are in flight together* and *where B's values live*, never
//! the per-cell addition order, so every path is bitwise identical to the
//! reference (pinned by seeded differential tests). For the same reason the
//! kernels never use FMA (`mul_add`): fusing the rounding step would change
//! the bits. Rust guarantees no implicit FP contraction, so the
//! `target_feature` wrappers below may auto-vectorize the mul-then-add
//! bodies without breaking the invariant.
//!
//! The kernel choice is runtime-selectable via [`set_matmul_kernel`] so
//! differential tests and benches can force [`MatmulKernel::Reference`]
//! in-process; `Auto` (the default) picks the fastest applicable path.

use std::sync::atomic::{AtomicU8, Ordering};

/// Minimum multiply-accumulate count before the blocked kernel engages;
/// below this the pack of B costs more than the cache locality buys.
const BLOCKED_MIN_WORK: usize = 32 * 32 * 32;

/// Row height of the register tile: rows of A processed together.
const MR: usize = 4;

/// Column width of a packed-B panel (and of the register tile).
const NR: usize = 16;

/// Which matmul implementation `matmul_into` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKernel {
    /// The original scalar i-k-j loop. The ground truth that every fast
    /// path must match bitwise.
    Reference,
    /// Runtime choice between the scalar and blocked/packed kernels
    /// (the default).
    Auto,
}

/// Current kernel selection (0 = Auto, 1 = Reference).
static KERNEL: AtomicU8 = AtomicU8::new(0);

/// Overrides the kernel [`Tensor::matmul`](crate::Tensor::matmul) uses.
///
/// Differential tests and benches use this to compare the fast paths
/// against the scalar reference in one process; both settings produce
/// bitwise-identical results, so this is a performance knob, not a
/// semantic one.
pub fn set_matmul_kernel(k: MatmulKernel) {
    // lint:allow(atomic-ordering): standalone mode flag; both kernels are bitwise-identical, so a stale read changes speed, never bytes.
    KERNEL.store(if k == MatmulKernel::Reference { 1 } else { 0 }, Ordering::Relaxed);
}

/// The kernel selection currently in effect.
pub fn matmul_kernel() -> MatmulKernel {
    // lint:allow(atomic-ordering): same mode-flag argument as `set_matmul_kernel`.
    if KERNEL.load(Ordering::Relaxed) == 1 {
        MatmulKernel::Reference
    } else {
        MatmulKernel::Auto
    }
}

/// SIMD capability of the host, detected once (0 unset, 1 scalar,
/// 2 AVX2, 3 AVX-512F).
static SIMD_LEVEL: AtomicU8 = AtomicU8::new(0);

#[derive(Clone, Copy, PartialEq, Eq)]
enum SimdLevel {
    Scalar,
    Avx2,
    Avx512,
}

fn simd_level() -> SimdLevel {
    // lint:allow(atomic-ordering): capability cache; every initializer computes the same value, so a missed store only repeats detection.
    match SIMD_LEVEL.load(Ordering::Relaxed) {
        1 => SimdLevel::Scalar,
        2 => SimdLevel::Avx2,
        3 => SimdLevel::Avx512,
        _ => {
            let detected = detect_simd();
            let code = match detected {
                SimdLevel::Scalar => 1,
                SimdLevel::Avx2 => 2,
                SimdLevel::Avx512 => 3,
            };
            // Racing initializers store the same value; last wins harmlessly.
            // lint:allow(atomic-ordering): same capability-cache argument as the load above.
            SIMD_LEVEL.store(code, Ordering::Relaxed);
            detected
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> SimdLevel {
    if std::arch::is_x86_feature_detected!("avx512f") {
        SimdLevel::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2") {
        SimdLevel::Avx2
    } else {
        SimdLevel::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> SimdLevel {
    SimdLevel::Scalar
}

/// Accumulates one row of `a[m, k] @ b[k, n]` into `out_row` (assumed
/// zeroed): the scalar reference kernel. `a_row` is row `i` of A.
#[inline]
pub(crate) fn scalar_row_into(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    for (kk, &a_ik) in a_row.iter().enumerate() {
        let b_row = &b[kk * n..kk * n + n];
        for (o, &bv) in out_row.iter_mut().zip(b_row) {
            *o += a_ik * bv;
        }
    }
}

/// Computes `out = a[m, k] @ b[k, n]` (`out` assumed zeroed) on the
/// calling thread, dispatching between the reference and blocked
/// kernels. Every path produces bitwise-identical output (see module
/// docs).
pub(crate) fn matmul_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if matmul_kernel() == MatmulKernel::Auto && m >= MR && m * k * n >= BLOCKED_MIN_WORK {
        // The pack scratch is reused across calls (thread-local) so the
        // hot path does not mmap/fault a fresh K*N buffer per product.
        PACK_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            pack_b(b, k, n, &mut scratch);
            blocked_rows(a, m, k, &scratch, n, out);
        });
        return;
    }
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        scalar_row_into(&a[i * k..(i + 1) * k], b, n, out_row);
    }
}

std::thread_local! {
    /// Reusable packed-B buffer. `matmul_into` is not reentrant, so one
    /// scratch per thread suffices.
    static PACK_SCRATCH: std::cell::RefCell<Vec<f32>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Packs `b[k, n]` into column panels of width [`NR`]: panel `p` stores,
/// for `kk = 0..k`, the (up to) NR values `b[kk][p*NR ..]` contiguously,
/// so the micro-kernel's k loop walks one dense stream per panel.
fn pack_b(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    packed.clear();
    packed.reserve(k * n);
    let mut j0 = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        for kk in 0..k {
            packed.extend_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
        }
        j0 += w;
    }
}

/// Runs the blocked kernel over the `m` rows of `a`, writing every row of
/// the output, with SIMD dispatch.
fn blocked_rows(a: &[f32], m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` only reports Avx512 when
        // `is_x86_feature_detected!("avx512f")` returned true on this
        // host, so the target-feature contract of the wrapper holds.
        SimdLevel::Avx512 => unsafe { blocked_rows_avx512(a, m, k, packed, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — Avx2 is only reported when
        // `is_x86_feature_detected!("avx2")` returned true.
        SimdLevel::Avx2 => unsafe { blocked_rows_avx2(a, m, k, packed, n, out) },
        _ => blocked_rows_impl(a, m, k, packed, n, out),
    }
}

/// AVX-512F instantiation of [`blocked_rows_impl`].
///
/// # Safety
/// Callers must have verified `avx512f` support on the running CPU
/// (see [`simd_level`]); the body itself contains no `unsafe` operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: `unsafe fn` purely for the target-feature contract restated in
// `# Safety` above; the body performs no unsafe operations.
unsafe fn blocked_rows_avx512(a: &[f32], m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    blocked_rows_impl(a, m, k, packed, n, out)
}

/// AVX2 instantiation of [`blocked_rows_impl`].
///
/// # Safety
/// Callers must have verified `avx2` support on the running CPU
/// (see [`simd_level`]); the body itself contains no `unsafe` operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` purely for the target-feature contract restated in
// `# Safety` above; the body performs no unsafe operations.
unsafe fn blocked_rows_avx2(a: &[f32], m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    blocked_rows_impl(a, m, k, packed, n, out)
}

/// Blocked-kernel body, shared by the scalar and `target_feature`
/// instantiations (which differ only in what the compiler may vectorize).
#[inline(always)]
fn blocked_rows_impl(a: &[f32], m: usize, k: usize, packed: &[f32], n: usize, out: &mut [f32]) {
    let mut j0 = 0;
    let mut poff = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let panel = &packed[poff..poff + k * w];
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            if mr == MR && w == NR {
                microkernel_full(&a[i0 * k..], k, panel, &mut out[i0 * n + j0..], n);
            } else {
                microkernel_edge(&a[i0 * k..], k, panel, w, mr, &mut out[i0 * n + j0..], n);
            }
            i0 += mr;
        }
        poff += k * w;
        j0 += w;
    }
}

/// Full `MR x NR` register tile: accumulates `MR` output rows against one
/// packed panel. `acc[i][j]` sums cell `(i0+i, j0+j)` in strict k order —
/// the same association as the scalar reference.
#[inline(always)]
fn microkernel_full(a: &[f32], k: usize, panel: &[f32], out: &mut [f32], ldo: usize) {
    let mut acc = [[0f32; NR]; MR];
    // A full panel holds exactly `k` rows of `NR` values.
    for (kk, bvals) in panel.as_chunks::<NR>().0.iter().enumerate() {
        for i in 0..MR {
            let a_ik = a[i * k + kk];
            for j in 0..NR {
                acc[i][j] += a_ik * bvals[j];
            }
        }
    }
    for i in 0..MR {
        out[i * ldo..i * ldo + NR].copy_from_slice(&acc[i]);
    }
}

/// Ragged tile (fewer than `MR` rows and/or a panel narrower than `NR`):
/// per-row accumulator, same strict per-cell k order.
#[inline(always)]
fn microkernel_edge(
    a: &[f32],
    k: usize,
    panel: &[f32],
    w: usize,
    mr: usize,
    out: &mut [f32],
    ldo: usize,
) {
    for i in 0..mr {
        let mut acc = [0f32; NR];
        for kk in 0..k {
            let a_ik = a[i * k + kk];
            let bvals = &panel[kk * w..kk * w + w];
            for (j, &bv) in bvals.iter().enumerate() {
                acc[j] += a_ik * bv;
            }
        }
        out[i * ldo..i * ldo + w].copy_from_slice(&acc[..w]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            scalar_row_into(&a[i * k..(i + 1) * k], b, n, out_row);
        }
        out
    }

    fn bits_eq(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn blocked_matches_reference_bitwise_on_odd_shapes() {
        let mut rng = Rng::seed_from_u64(0xb10c);
        for &(m, k, n) in &[
            (4usize, 16usize, 16usize),
            (5, 7, 3),
            (13, 64, 130),
            (64, 33, 17),
            (37, 41, 129),
            (4, 1, 16),
            (6, 2, 40),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let want = naive(&a, m, k, &b, n);
            let mut packed = Vec::new();
            pack_b(&b, k, n, &mut packed);
            let mut got = vec![0.0f32; m * n];
            blocked_rows(&a, m, k, &packed, n, &mut got);
            assert!(bits_eq(&want, &got), "blocked differs at {m}x{k}x{n}");
        }
    }

    #[test]
    fn kernel_knob_roundtrips() {
        set_matmul_kernel(MatmulKernel::Reference);
        assert_eq!(matmul_kernel(), MatmulKernel::Reference);
        set_matmul_kernel(MatmulKernel::Auto);
        assert_eq!(matmul_kernel(), MatmulKernel::Auto);
    }
}
