//! Elementwise `tanh` computed in-tree, bit for bit equal to glibc 2.36's
//! `tanhf`.
//!
//! [`tanh`] and [`tanh_slice`] are a port of the fdlibm `tanhf` and
//! `expm1f` that glibc 2.36 ships (`sysdeps/ieee754/flt-32`), with the
//! five-term `Q1..Q5` polynomial of fdlibm's `expm1f`. Those two symbols
//! are plain, not IFUNC-dispatched, and glibc builds them without FMA,
//! so their single-precision arithmetic can be repeated exactly: the port
//! runs the same operations in the same order on the same constants, and
//! an exhaustive sweep over all 2³² inputs (`exhaustive_sweep_matches_libm`,
//! run by `scripts/verify.sh`) finds no input where its bits differ from
//! `f32::tanh`'s (NaN compared by NaN-ness, not payload).
//!
//! The port is branch-free: every path of both functions is computed and
//! one is selected per element, so the slice loop vectorizes. It sits
//! behind the same SIMD dispatch as the matmul kernels
//! ([`crate::matmul`]): one `#[inline(always)]` body, instantiated for
//! AVX-512F and AVX2 through `#[target_feature]` wrappers, with a baseline
//! fallback. The instruction set changes how many lanes run at once,
//! never an operation or its rounding (Rust performs no implicit FP
//! contraction), so every instantiation gives the same bits.
//!
//! `expm1` is only ported over the arguments `tanh` gives it: `2|x|` for
//! `1 <= |x| < 22` and `-2|x|` for `2⁻⁵⁵ <= |x| < 1`, that is
//! `[-2, -2⁻⁵⁴]` and `[2, 44)`. Its overflow, infinity and NaN filters
//! are unreachable from `tanh` and are left out.
//!
//! `exp` and `ln` stay on the host libm: in glibc 2.36 `expf` and `logf`
//! are IFUNC-dispatched (they have FMA variants), so a port would have to
//! match whichever variant the host picks.

use crate::matmul::{simd_level, SimdLevel};

/// `ln 2` split so that `k · LN2_HI` is exact for every `|k| < 2⁸`.
const LN2_HI: f32 = 6.931_381_225_6e-1; // 0x3f317180
const LN2_LO: f32 = 9.058_000_614_5e-6; // 0x3717f7d1
const INV_LN2: f32 = 1.442_695_021_6e0; // 0x3fb8aa3b
/// fdlibm's scaled `expm1` coefficients.
const Q1: f32 = -3.333_333_507_2e-2; // 0xbd088889
const Q2: f32 = 1.587_301_609_1e-3; // 0x3ad00d01
const Q3: f32 = -7.936_507_609_0e-5; // 0xb8a670cd
const Q4: f32 = 4.008_217_729_3e-6; // 0x36867e54
const Q5: f32 = -2.010_992_119_5e-7; // 0xb457edbb

/// `tanh(x)`, bit for bit equal to glibc 2.36's `tanhf` (NaN inputs give
/// NaN).
pub fn tanh(x: f32) -> f32 {
    tanh_lane(x)
}

/// Replaces every element of `xs` by its [`tanh`], on the widest SIMD
/// instruction set the host has.
pub fn tanh_slice(xs: &mut [f32]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level()` only reports Avx512 when
        // `is_x86_feature_detected!("avx512f")` returned true on this
        // host, so the target-feature contract of the wrapper holds.
        SimdLevel::Avx512 => unsafe { tanh_slice_avx512(xs) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above — Avx2 is only reported when
        // `is_x86_feature_detected!("avx2")` returned true.
        SimdLevel::Avx2 => unsafe { tanh_slice_avx2(xs) },
        _ => tanh_slice_impl(xs),
    }
}

/// AVX-512F instantiation of [`tanh_slice_impl`].
///
/// # Safety
/// Callers must have verified `avx512f` support on the running CPU
/// (see [`simd_level`]); the body itself contains no `unsafe` operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: `unsafe fn` purely for the target-feature contract restated in
// `# Safety` above; the body performs no unsafe operations.
unsafe fn tanh_slice_avx512(xs: &mut [f32]) {
    tanh_slice_impl(xs)
}

/// AVX2 instantiation of [`tanh_slice_impl`].
///
/// # Safety
/// Callers must have verified `avx2` support on the running CPU
/// (see [`simd_level`]); the body itself contains no `unsafe` operations.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` purely for the target-feature contract restated in
// `# Safety` above; the body performs no unsafe operations.
unsafe fn tanh_slice_avx2(xs: &mut [f32]) {
    tanh_slice_impl(xs)
}

/// Slice body shared by the baseline and `target_feature` instantiations.
#[inline(always)]
fn tanh_slice_impl(xs: &mut [f32]) {
    for x in xs {
        *x = tanh_lane(*x);
    }
}

/// fdlibm `tanhf` with every path computed and one selected:
///
/// - `|x| < 2⁻⁵⁵` (±0 and subnormals included): `x·(1 + x)`, which is `x`;
/// - `2⁻⁵⁵ <= |x| < 1`: `-t / (t + 2)` with `t = expm1(-2|x|)`;
/// - `1 <= |x| < 22`: `1 - 2 / (t + 2)` with `t = expm1(2|x|)`;
/// - `|x| >= 22` and ±inf: `1 - 10⁻³⁰`, which is 1;
///
/// each with `x`'s sign, and NaN for NaN.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let ax = f32::from_bits(ix);
    let ge_one = ix >= 0x3f80_0000;
    let t = expm1_lane(if ge_one { 2.0 * ax } else { -2.0 * ax });
    let z_big = 1.0 - 2.0 / (t + 2.0);
    let z_small = -t / (t + 2.0);
    let z = if ix >= 0x41b0_0000 {
        1.0
    } else if ge_one {
        z_big
    } else {
        z_small
    };
    let signed = if x.is_sign_negative() { -z } else { z };
    let tiny = x * (1.0 + x);
    if ix > 0x7f80_0000 {
        x + x
    } else if ix < 0x2400_0000 {
        tiny
    } else {
        signed
    }
}

/// fdlibm `expm1f` over `[-2, -2⁻⁵⁴] ∪ [2, 44)`, every path computed and
/// one selected. Reduces `x = k·ln2 + r` (`k = 0` below `0.5·ln2`, `±1`
/// up to `1.5·ln2`, else the rounded `x / ln2`), evaluates the rational
/// approximation on `r`, and rebuilds `2^k·(1 + expm1(r)) - 1` by one of
/// the `k` cases below (`x` itself below `2⁻²⁵`).
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    // `k` as a float: C's `(int)` conversion truncates toward zero.
    let k_near = if neg { -1.0 } else { 1.0 };
    let kf = if hx <= 0x3eb1_7218 {
        0.0
    } else if hx < 0x3f85_1592 {
        k_near
    } else {
        (INV_LN2 * x + if neg { -0.5 } else { 0.5 }).trunc()
    };
    // `k` as a two's-complement integer, read off the low bits of
    // `kf + 1.5·2²³` (exact, since every `|k| <= 64`).
    let k = (kf + 12_582_912.0).to_bits().wrapping_sub(0x4b40_0000);
    // `k = 0` reduces to `hi = x`, `lo = 0`, `c = 0`, and `k = ±1` to
    // fdlibm's `x ∓ ln2_hi`, `±ln2_lo`: the same bits as its separate
    // branches.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let k0 = r - (r * e - hxs);

    let e = (r * (e - c) - c) - hxs;
    let k_minus_one = 0.5 * (r - e) - 0.5;
    let k_one = if r < -0.25 { -2.0 * (e - (r + 0.5)) } else { 1.0 + 2.0 * (r - e) };
    // Adds `k` to a float's exponent field.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add(k << 23));
    let k_far = scale(1.0 - (e - r)) - 1.0;
    // 2 <= k < 23: t = 1 - 2^-k.
    let t_mid = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k));
    let k_mid = scale(t_mid - (e - r));
    // 23 <= k <= 56: t = 2^-k.
    let t_high = f32::from_bits(0x7fu32.wrapping_sub(k) << 23);
    let k_high = scale((r - (e + t_high)) + 1.0);

    let reduced = if kf == 0.0 {
        k0
    } else if kf == -1.0 {
        k_minus_one
    } else if kf == 1.0 {
        k_one
    } else if kf <= -2.0 || kf > 56.0 {
        k_far
    } else if kf < 23.0 {
        k_mid
    } else {
        k_high
    };
    if hx < 0x3300_0000 {
        x
    } else {
        reduced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Bits equal, or both NaN.
    fn same(got: f32, want: f32) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    /// Checks the scalar, the dispatched slice and the baseline slice forms
    /// against libm. The reference is the host's `tanhf`: these tests
    /// assume it is glibc 2.36's, the function the port reproduces.
    fn check(inputs: &[f32]) {
        let mut slice = inputs.to_vec();
        tanh_slice(&mut slice);
        let mut baseline = inputs.to_vec();
        tanh_slice_impl(&mut baseline);
        for ((&x, &s), &b) in inputs.iter().zip(&slice).zip(&baseline) {
            let want = x.tanh();
            assert!(same(tanh(x), want), "scalar tanh({x:e} = {:#010x})", x.to_bits());
            assert!(same(s, want), "slice tanh({x:e} = {:#010x})", x.to_bits());
            assert!(same(b, want), "baseline slice tanh({x:e} = {:#010x})", x.to_bits());
        }
    }

    #[test]
    fn constants_have_fdlibm_bits() {
        let bits = [LN2_HI, LN2_LO, INV_LN2, Q1, Q2, Q3, Q4, Q5].map(f32::to_bits);
        assert_eq!(
            bits,
            [
                0x3f31_7180,
                0x3717_f7d1,
                0x3fb8_aa3b,
                0xbd08_8889,
                0x3ad0_0d01,
                0xb8a6_70cd,
                0x3686_7e54,
                0xb457_edbb
            ]
        );
    }

    /// Every edge of the port's ranges, a few ulps either side, both signs.
    #[test]
    fn matches_libm_at_every_range_boundary() {
        let ln2 = std::f32::consts::LN_2;
        let mut edges = vec![
            // tanh: 2^-55, then expm1's 2^-25 on 2|x| (|x| = 2^-26), 1, 22.
            f32::from_bits(0x2400_0000),
            f32::from_bits(0x3300_0000) / 2.0,
            1.0,
            22.0,
            // expm1's 0.5·ln2 and 1.5·ln2 on -2|x|, and its 27·ln2 on 2|x|.
            f32::from_bits(0x3eb1_7218) / 2.0,
            f32::from_bits(0x3f85_1592) / 2.0,
            f32::from_bits(0x4195_b844) / 2.0,
            // k = 23 and k = 56 on 2|x|: 2|x| / ln2 crossing 22.5, 23.5,
            // 55.5 and 56.5.
            22.5 * ln2 / 2.0,
            23.5 * ln2 / 2.0,
            55.5 * ln2 / 2.0,
            56.5 * ln2 / 2.0,
            // k = 2 and k = -2 edges.
            2.5 * ln2 / 2.0,
            1.5 * ln2 / 2.0,
            // Subnormals, the largest finite value.
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        for x in edges.clone() {
            for d in 1..=4u32 {
                edges.push(f32::from_bits(x.to_bits().saturating_add(d)));
                edges.push(f32::from_bits(x.to_bits().saturating_sub(d)));
            }
        }
        edges.extend([0.0, f32::INFINITY, f32::NAN, f32::from_bits(0x7f80_0001)]);
        let mut all: Vec<f32> = edges.iter().flat_map(|&x| [x, -x]).collect();
        all.sort_by(|a, b| a.total_cmp(b));
        check(&all);
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
    }

    /// A seeded sample of 2^20 bit patterns, spread over every exponent.
    #[test]
    fn matches_libm_on_a_seeded_sample() {
        let mut rng = Rng::seed_from_u64(0x7a_4e);
        let inputs: Vec<f32> = (0..1 << 20).map(|_| f32::from_bits(rng.next_u32())).collect();
        check(&inputs);
    }

    /// Every one of the 2^32 inputs through the dispatched slice form,
    /// fanned across the pool (about 4 min on 2 vCPUs in release).
    #[test]
    #[ignore = "exhaustive 2^32 sweep; scripts/verify.sh runs it with --ignored"]
    fn exhaustive_sweep_matches_libm() {
        const CHUNK: u32 = 1 << 20;
        let mut mismatches = vec![0u64; (1usize << 32) / CHUNK as usize];
        crate::pool::parallel_for_chunks(&mut mismatches, 1, |chunk, count| {
            let base = chunk as u32 * CHUNK;
            let mut xs: Vec<f32> = (base..=base + (CHUNK - 1)).map(f32::from_bits).collect();
            tanh_slice(&mut xs);
            count[0] = (base..=base + (CHUNK - 1))
                .zip(&xs)
                .filter(|&(b, &y)| !same(y, f32::from_bits(b).tanh()))
                .count() as u64;
        });
        assert_eq!(mismatches.iter().sum::<u64>(), 0, "inputs where tanh_slice differs from libm");
    }
}
