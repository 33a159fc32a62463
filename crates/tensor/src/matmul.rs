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
//! The backward pass's two products have kernels of their own, so it
//! never copies an operand into a transposed buffer:
//!
//! - **`A·Bᵀ`** (`matmul_bt_into`, the input gradient `g·Wᵀ`) — below the
//!   blocked threshold, `row_dots` takes each cell as the dot product of
//!   a row of A and a row of B, read in place, with `DOT_COLS` cells in
//!   flight; above it, `pack_bt` packs B's rows straight into the blocked
//!   kernel's panels.
//! - **`Aᵀ·B`** (`matmul_at_into`, the weight gradient `Xᵀ·g`) — the
//!   reference loop and the blocked kernel read A's columns with stride
//!   (the blocked kernel takes A through a `(row, column)` stride pair).
//!
//! All of them run on the calling thread. The pool fans out across independent
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
//! reference (pinned by seeded differential tests), and the transpose-free
//! kernels are bitwise equal to the reference on a transposed copy. For
//! the same reason the kernels never use FMA (`mul_add`): fusing the
//! rounding step would change the bits. Rust guarantees no implicit FP contraction, so the
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

/// The widest SIMD instruction set the kernels may use on this host.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    Scalar,
    Avx2,
    Avx512,
}

/// The host's [`SimdLevel`], detected on first use.
pub(crate) fn simd_level() -> SimdLevel {
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
    if blocked(m, k, n) {
        packed_product(|packed| pack_b(b, k, n, packed), a, m, k, (k, 1), n, out);
        return;
    }
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        scalar_row_into(&a[i * k..(i + 1) * k], b, n, out_row);
    }
}

/// Computes `out = a[m, k] · b[n, k]ᵀ` on the calling thread, without
/// transposing `b`. Every cell of `out` is overwritten with the dot
/// product of a row of A and a row of B summed in `k` order from zero:
/// the cell the reference kernel computes on a transposed copy of `b`.
///
/// Above the blocked threshold, `b`'s rows are packed straight into the
/// blocked kernel's column panels; below it, [`row_dots`] reads them in
/// place.
pub(crate) fn matmul_bt_into(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if blocked(m, k, n) {
        packed_product(|packed| pack_bt(b, k, n, packed), a, m, k, (k, 1), n, out);
    } else {
        row_dots(a, m, k, b, n, out);
    }
}

/// Computes `out = a[k, m]ᵀ · b[k, n]` on the calling thread, without
/// transposing `a`. Every cell of `out` is overwritten with
/// `((0 + a[0][i]·b[0][j]) + a[1][i]·b[1][j]) + …`, the cell the
/// reference kernel computes on a transposed copy of `a`.
///
/// Both paths read A's column `i` with stride `m` where the forward
/// kernels read a row: the blocked kernel through its A strides, and the
/// row path as one scaled-row update of `out`'s row `i` per row of `b`.
pub(crate) fn matmul_at_into(a: &[f32], k: usize, m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if blocked(m, k, n) {
        packed_product(|packed| pack_b(b, k, n, packed), a, m, k, (1, m), n, out);
        return;
    }
    for (i, out_row) in out.chunks_mut(n).enumerate() {
        out_row.fill(0.0);
        for (kk, b_row) in b.chunks_exact(n).enumerate() {
            let a_ki = a[kk * m + i];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += a_ki * bv;
            }
        }
    }
}

/// Whether an `[m, k] · [k, n]` product takes the blocked kernel.
fn blocked(m: usize, k: usize, n: usize) -> bool {
    matmul_kernel() == MatmulKernel::Auto && m >= MR && m * k * n >= BLOCKED_MIN_WORK
}

/// Packs B's panels with `pack` into the thread-local scratch and runs the
/// blocked kernel. The pack scratch is reused across calls so the hot path
/// does not mmap/fault a fresh K*N buffer per product.
fn packed_product(
    pack: impl FnOnce(&mut Vec<f32>),
    a: &[f32],
    m: usize,
    k: usize,
    a_strides: (usize, usize),
    n: usize,
    out: &mut [f32],
) {
    PACK_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        pack(&mut scratch);
        blocked_rows(a, m, k, a_strides, &scratch, n, out);
    });
}

/// Columns of `out` one [`row_dots`] pass keeps in flight.
const DOT_COLS: usize = 8;

/// `out = a[m, k] · b[n, k]ᵀ` as dot products of A's rows with B's rows,
/// read in place: [`DOT_COLS`] independent accumulators per pass, each
/// summing its cell in `k` order from zero. The cells are independent
/// chains, so the adds overlap without reassociating any of them. It has
/// no `target_feature` instantiations: a vector lane per cell would have
/// to gather B's column across rows, and AVX2/AVX-512 builds of this body
/// measured slower than the scalar chains.
fn row_dots(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..i * k + k];
        let out_row = &mut out[i * n..i * n + n];
        let mut j = 0;
        while j + DOT_COLS <= n {
            let rows: [&[f32]; DOT_COLS] = std::array::from_fn(|l| &b[(j + l) * k..(j + l) * k + k]);
            let mut acc = [0f32; DOT_COLS];
            for (kk, &av) in a_row.iter().enumerate() {
                for (acc_l, row) in acc.iter_mut().zip(&rows) {
                    *acc_l += av * row[kk];
                }
            }
            out_row[j..j + DOT_COLS].copy_from_slice(&acc);
            j += DOT_COLS;
        }
        for (jj, o) in out_row.iter_mut().enumerate().skip(j) {
            let mut acc = 0f32;
            for (&av, &bv) in a_row.iter().zip(&b[jj * k..jj * k + k]) {
                acc += av * bv;
            }
            *o = acc;
        }
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

/// Packs `bᵀ` for `b[n, k]` into the panels [`pack_b`] would build from a
/// transposed copy: panel `p` stores, for `kk = 0..k`, the (up to) NR
/// values `b[p*NR ..][kk]` contiguously.
fn pack_bt(b: &[f32], k: usize, n: usize, packed: &mut Vec<f32>) {
    packed.clear();
    packed.reserve(k * n);
    let mut j0 = 0;
    while j0 < n {
        let rows = &b[j0 * k..(j0 + NR.min(n - j0)) * k];
        for kk in 0..k {
            packed.extend(rows.iter().skip(kk).step_by(k));
        }
        j0 += NR;
    }
}

/// Runs the blocked kernel over the `m` rows of A, writing every row of
/// the output, with SIMD dispatch. A's element `(i, kk)` is
/// `a[i * a_strides.0 + kk * a_strides.1]`: `(k, 1)` for a row-major A,
/// `(1, m)` for the transpose of a row-major `[k, m]` matrix.
fn blocked_rows(
    a: &[f32],
    m: usize,
    k: usize,
    a_strides: (usize, usize),
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` only reports Avx512 when
        // `is_x86_feature_detected!("avx512f")` returned true on this
        // host, so the target-feature contract of the wrapper holds.
        SimdLevel::Avx512 => unsafe { blocked_rows_avx512(a, m, k, a_strides, packed, n, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — Avx2 is only reported when
        // `is_x86_feature_detected!("avx2")` returned true.
        SimdLevel::Avx2 => unsafe { blocked_rows_avx2(a, m, k, a_strides, packed, n, out) },
        _ => blocked_rows_impl(a, m, k, a_strides, packed, n, out),
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
unsafe fn blocked_rows_avx512(
    a: &[f32],
    m: usize,
    k: usize,
    a_strides: (usize, usize),
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    blocked_rows_impl(a, m, k, a_strides, packed, n, out)
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
unsafe fn blocked_rows_avx2(
    a: &[f32],
    m: usize,
    k: usize,
    a_strides: (usize, usize),
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    blocked_rows_impl(a, m, k, a_strides, packed, n, out)
}

/// Blocked-kernel body, shared by the scalar and `target_feature`
/// instantiations (which differ only in what the compiler may vectorize).
#[inline(always)]
fn blocked_rows_impl(
    a: &[f32],
    m: usize,
    k: usize,
    a_strides: (usize, usize),
    packed: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    let mut poff = 0;
    while j0 < n {
        let w = NR.min(n - j0);
        let panel = &packed[poff..poff + k * w];
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            let a_tile = &a[i0 * a_strides.0..];
            if mr == MR && w == NR {
                microkernel_full(a_tile, a_strides, panel, &mut out[i0 * n + j0..], n);
            } else {
                microkernel_edge(a_tile, a_strides, k, panel, w, mr, &mut out[i0 * n + j0..], n);
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
fn microkernel_full(a: &[f32], (rs, cs): (usize, usize), panel: &[f32], out: &mut [f32], ldo: usize) {
    let mut acc = [[0f32; NR]; MR];
    // A full panel holds exactly `k` rows of `NR` values.
    for (kk, bvals) in panel.as_chunks::<NR>().0.iter().enumerate() {
        for i in 0..MR {
            let a_ik = a[i * rs + kk * cs];
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
    (rs, cs): (usize, usize),
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
            let a_ik = a[i * rs + kk * cs];
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
            blocked_rows(&a, m, k, (k, 1), &packed, n, &mut got);
            assert!(bits_eq(&want, &got), "blocked differs at {m}x{k}x{n}");
        }
    }

    /// Bits equal, or both NaN: NaN payloads are not part of any result.
    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols * rows).map(|t| x[(t % rows) * cols + t / rows]).collect()
    }

    /// Seeded values with `-0.0`, `±inf` and NaN sprinkled in when
    /// `special` is set.
    fn values(rng: &mut Rng, len: usize, special: bool) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..40u32) {
                0 if special => -0.0,
                1 if special => f32::INFINITY,
                2 if special => f32::NEG_INFINITY,
                3 if special => f32::NAN,
                4 => 0.0,
                _ => rng.gen_range(-1.0..=1.0),
            })
            .collect()
    }

    /// The transpose-free products against transpose-then-reference, on
    /// one row, fewer rows than a register tile, at least a tile, and
    /// sizes above `BLOCKED_MIN_WORK`, with and without special values.
    #[test]
    fn transpose_free_products_match_transpose_then_reference() {
        let mut rng = Rng::seed_from_u64(0xb7a7);
        let shapes = [
            (1usize, 256usize, 64usize),
            (1, 7, 3),
            (1, 1, 9),
            (2, 33, 17),
            (3, 64, 48),
            (4, 16, 16),
            (5, 7, 3),
            (13, 64, 130),
            (37, 41, 129),
            (64, 64, 64),
            (6, 1, 40),
        ];
        for &(m, k, n) in &shapes {
            for special in [false, true] {
                let a = values(&mut rng, m * k, special);
                let b = values(&mut rng, n * k, special);
                let want = naive(&a, m, k, &transposed(&b, n, k), n);
                let mut got = vec![f32::NAN; m * n];
                matmul_bt_into(&a, m, k, &b, n, &mut got);
                assert!(same_bits(&want, &got), "a·bᵀ differs at {m}x{k}x{n} (special {special})");

                // Aᵀ·B with A stored [k, m].
                let at = values(&mut rng, k * m, special);
                let b = values(&mut rng, k * n, special);
                let want = naive(&transposed(&at, k, m), m, k, &b, n);
                let mut got = vec![f32::NAN; m * n];
                matmul_at_into(&at, k, m, &b, n, &mut got);
                assert!(same_bits(&want, &got), "aᵀ·b differs at {m}x{k}x{n} (special {special})");
            }
        }
        // A zero times NaN or inf is NaN on every path, and a cell whose
        // products are all -0.0 sums to +0.0, as the reference's
        // `0 + …` does.
        for &(m, k, n) in &[(1usize, 4usize, 9usize), (40, 32, 33)] {
            let a = vec![0.0f32; m * k];
            let mut b = vec![-1.0f32; n * k];
            b[0] = f32::NAN;
            b[k] = f32::INFINITY;
            let mut got = vec![0.0f32; m * n];
            matmul_bt_into(&a, m, k, &b, n, &mut got);
            assert!(got.chunks(n).all(|row| row[0].is_nan() && row[1].is_nan()), "0·NaN lost at {m}x{k}x{n}");
            assert!(got.chunks(n).all(|row| row[2..].iter().all(|v| v.to_bits() == 0)), "-0 sum at {m}x{k}x{n}");
            let mut b = vec![-1.0f32; k * n];
            b[0] = f32::NAN;
            b[1] = f32::NEG_INFINITY;
            let a = vec![0.0f32; k * m];
            let mut got = vec![0.0f32; m * n];
            matmul_at_into(&a, k, m, &b, n, &mut got);
            assert!(got.chunks(n).all(|row| row[0].is_nan() && row[1].is_nan()), "0·NaN lost at {m}x{k}x{n}");
            assert!(got.chunks(n).all(|row| row[2..].iter().all(|v| v.to_bits() == 0)), "-0 sum at {m}x{k}x{n}");
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
