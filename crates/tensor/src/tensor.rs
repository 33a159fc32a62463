//! Dense 2-D `f32` tensor used throughout the NLIDB reproduction.
//!
//! All tensors are row-major matrices of shape `[rows, cols]`; vectors are
//! represented as single-row matrices `[1, n]`. This deliberately small
//! surface (no N-d shapes, no strides) keeps the autograd engine in
//! [`crate::graph`] simple and auditable while covering everything the
//! paper's models need: sequence models operate on `[time, dim]` matrices,
//! classifiers on `[1, dim]` rows.

use nlidb_json::{FromJson, Json, JsonError, ToJson};

use crate::matmul;
use crate::rng::Rng;

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with the given value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape [{rows}, {cols}]",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// Creates a `[1, n]` row vector from a slice.
    pub fn row_vector(values: &[f32]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a tensor with entries drawn uniformly from `[-bound, bound]`.
    pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut Rng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
        Tensor { rows, cols, data }
    }

    /// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Self::uniform(rows, cols, bound, rng)
    }

    /// Xavier initialization with a caller-provided seed (convenience for tests).
    pub fn xavier_seeded(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self::xavier(rows, cols, &mut rng)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its flat row-major buffer (used by
    /// the graph arena to recycle allocations).
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self @ other`.
    ///
    /// Dispatches through [`crate::matmul`]: a scalar i-k-j reference
    /// loop for small products and a cache-blocked packed-B kernel for
    /// larger shapes, both on the calling thread. Both keep the
    /// per-output-cell reduction order of the scalar loop, so the result
    /// is bitwise identical regardless of kernel selection
    /// ([`crate::matmul::set_matmul_kernel`]).
    ///
    /// Note there is deliberately *no* skip of zero left-hand entries:
    /// `0 * NaN` and `0 * Inf` must produce `NaN` so that divergence in
    /// one operand is never silently masked (IEEE-754 semantics).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Computes `self @ other` into a caller-provided (zeroed) output
    /// tensor; [`Tensor::matmul`] over a reused buffer.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or wrong `out` shape.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: [{}, {}] @ [{}, {}]",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        matmul::matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
    }

    /// Computes `self · otherᵀ` into a caller-provided `[self.rows,
    /// other.rows]` tensor, reading `other`'s rows in place: no transposed
    /// copy. Every element of `out` is overwritten, bitwise equal to
    /// `self.matmul(&other.transpose())` (the same per-cell `k` order).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or wrong `out` shape.
    pub fn matmul_bt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt shape mismatch: [{}, {}] @ [{}, {}]^T",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_bt_into output shape mismatch");
        matmul::matmul_bt_into(&self.data, self.rows, self.cols, &other.data, other.rows, &mut out.data);
    }

    /// Computes `selfᵀ · other` into a caller-provided `[self.cols,
    /// other.cols]` tensor, reading `self`'s columns in place: no
    /// transposed copy. Every element of `out` is overwritten, bitwise
    /// equal to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or wrong `out` shape.
    pub fn matmul_at_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_at shape mismatch: [{}, {}]^T @ [{}, {}]",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_at_into output shape mismatch");
        matmul::matmul_at_into(&self.data, self.rows, self.cols, &other.data, other.cols, &mut out.data);
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-provided `[cols, rows]` output tensor
    /// ([`Tensor::transpose`] over a reused buffer). Every element of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics if `out` is not `[cols, rows]`.
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into shape mismatch");
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.map_into(f, &mut out);
        out
    }

    /// [`Tensor::map`] into a caller-provided same-shape output tensor
    /// (used by the graph arena to recycle buffers). Every element of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn map_into(&self, f: impl Fn(f32) -> f32, out: &mut Tensor) {
        assert_eq!(self.shape(), out.shape(), "map_into shape mismatch");
        for (o, &x) in out.data.iter_mut().zip(&self.data) {
            *o = f(x);
        }
    }

    /// Elementwise binary combination with shape assertion.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        let mut out = Tensor::zeros(self.rows, self.cols);
        self.zip_into(other, f, &mut out);
        out
    }

    /// [`Tensor::zip`] into a caller-provided same-shape output tensor
    /// (used by the graph arena to recycle buffers). Every element of
    /// `out` is overwritten.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_into(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32, out: &mut Tensor) {
        assert_eq!(self.shape(), other.shape(), "elementwise shape mismatch");
        assert_eq!(self.shape(), out.shape(), "zip_into output shape mismatch");
        for ((o, &a), &b) in out.data.iter_mut().zip(&self.data).zip(&other.data) {
            *o = f(a, b);
        }
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of all elements.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Squared L2 norm accumulated in `f64`.
    ///
    /// Overflow-safe: squares of values near `f32::MAX` overflow an `f32`
    /// accumulator to infinity, but fit comfortably in `f64` (used by
    /// global-norm gradient clipping).
    pub fn norm_sq_f64(&self) -> f64 {
        self.data.iter().map(|&x| x as f64 * x as f64).sum()
    }

    /// L2 norm of all elements.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Lp norm of all elements (`p >= 1`); `p = 2.0` matches [`Tensor::norm`].
    pub fn norm_p(&self, p: f32) -> f32 {
        assert!(p >= 1.0, "norm_p requires p >= 1");
        if p == 2.0 {
            return self.norm();
        }
        if p == 1.0 {
            return self.data.iter().map(|x| x.abs()).sum();
        }
        self.data.iter().map(|x| x.abs().powf(p)).sum::<f32>().powf(1.0 / p)
    }

    /// The single scalar in a `[1, 1]` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not `[1, 1]`.
    pub fn scalar(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "scalar() on non-[1,1] tensor");
        self.data[0]
    }

    /// Index of the maximum element in row `r`.
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// Vertical concatenation: stacks `other` below `self`.
    pub fn vcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "vcat column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Horizontal concatenation: places `other` to the right of `self`.
    pub fn hcat(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Tensor { rows: self.rows, cols, data }
    }

    /// Returns true if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl ToJson for Tensor {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.to_json()),
        ])
    }
}

impl FromJson for Tensor {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let rows: usize = j.req("rows")?;
        let cols: usize = j.req("cols")?;
        let data: Vec<f32> = j.req("data")?;
        if data.len() != rows * cols {
            return Err(JsonError::new(format!(
                "tensor data length {} does not match shape [{rows}, {cols}]",
                data.len()
            )));
        }
        Ok(Tensor { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert!(t.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(t.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_propagates_nan_and_inf_through_zero_lhs() {
        // Regression: the old kernel skipped `a_ik == 0.0`, silently
        // turning `0 * NaN` / `0 * Inf` into `0` and masking divergence
        // in the right operand during training.
        let a = Tensor::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Tensor::from_vec(2, 2, vec![f32::NAN, 1.0, 2.0, 3.0]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0 * NaN must propagate as NaN");
        assert_eq!(c.get(0, 1), 3.0);

        let b = Tensor::from_vec(2, 1, vec![f32::INFINITY, 5.0]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0 * Inf must propagate as NaN");
    }

    #[test]
    fn norm_sq_f64_survives_values_near_f32_max() {
        let t = Tensor::row_vector(&[3.0e38, 3.0e38]);
        assert!(t.norm_sq().is_infinite(), "f32 accumulator overflows");
        let sq = t.norm_sq_f64();
        assert!(sq.is_finite());
        assert!((sq - 2.0 * 9.0e76).abs() / sq < 1e-6);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(2, 2, vec![3.0, -1.0, 0.5, 2.0]);
        let i = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn row_views() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn concat_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(1, 3);
        assert_eq!(a.vcat(&b).shape(), (3, 3));
        let c = Tensor::zeros(2, 4);
        assert_eq!(a.hcat(&c).shape(), (2, 7));
    }

    #[test]
    fn hcat_interleaves_rows() {
        let a = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Tensor::from_vec(2, 1, vec![3.0, 4.0]);
        assert_eq!(a.hcat(&b).data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn norms() {
        let t = Tensor::row_vector(&[3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
        assert!((t.norm_p(1.0) - 7.0).abs() < 1e-6);
        assert!((t.norm_p(2.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_row_picks_first_max() {
        let t = Tensor::from_vec(1, 4, vec![0.1, 0.9, 0.9, 0.2]);
        assert_eq!(t.argmax_row(0), 1);
    }

    #[test]
    fn xavier_is_seeded_deterministic() {
        let a = Tensor::xavier_seeded(4, 4, 7);
        let b = Tensor::xavier_seeded(4, 4, 7);
        assert_eq!(a, b);
        let c = Tensor::xavier_seeded(4, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn json_roundtrip_preserves_shape_and_data() {
        let t = Tensor::from_vec(2, 2, vec![1.5, -2.0, 0.1, 0.0]);
        let restored = Tensor::from_json(&t.to_json()).unwrap();
        assert_eq!(restored, t);
        let bad = nlidb_json::Json::parse(r#"{"rows":2,"cols":2,"data":[1.0]}"#).unwrap();
        assert!(Tensor::from_json(&bad).is_err());
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::row_vector(&[1.0, 1.0]);
        let b = Tensor::row_vector(&[2.0, 4.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 3.0]);
    }
}
