//! Dense row-major matrices and the shared GEMM kernel.
//!
//! Every layer in this crate (dense, conv-via-im2col, LSTM gates) lowers its
//! hot path onto one cache-blocked kernel, [`gemm_acc`]. The kernel
//! accumulates each output element strictly in increasing-`k` order, which
//! makes it **bit-identical** to the naive triple loop it replaced
//! ([`Matrix::matmul_reference`]) — golden figures and trained-model
//! trajectories do not shift.

use rand::rngs::SmallRng;
use rand::Rng;

/// Wide register tile: enough independent accumulator lanes (8 × 4-wide
/// vectors) to hide FP-add latency without reassociating any sum.
const NR: usize = 32;
/// Narrow register tile for mid-size column remainders.
const NR2: usize = 8;
/// K-panel height: rows of `b` streamed per pass, sized so the panel plus
/// the output tile stays cache-resident for large inner dimensions.
const KC: usize = 512;

/// Accumulates one `TILE`-wide register tile of row `i` over `a_panel`,
/// starting from the values already in `c_tile`. Terms are added in
/// strictly increasing `k` order per output element.
#[inline(always)]
fn tile_acc<const TILE: usize>(
    a_panel: &[f64],
    b: &[f64],
    n: usize,
    bj: usize,
    c_tile: &mut [f64],
) {
    let mut acc = [0.0f64; TILE];
    acc.copy_from_slice(&c_tile[..TILE]);
    let mut b_off = bj;
    for &aik in a_panel {
        let b_tile = &b[b_off..b_off + TILE];
        for (t, &bv) in b_tile.iter().enumerate() {
            acc[t] += aik * bv;
        }
        b_off += n;
    }
    c_tile[..TILE].copy_from_slice(&acc);
}

/// Like [`tile_acc`] but for two consecutive rows of `a`/`c` at once:
/// doubles the independent accumulator chains (hiding FP-add latency on
/// narrow tiles) and shares each `b` load between the rows. Per-element
/// summation order is unchanged.
#[inline(always)]
fn tile_acc2<const TILE: usize>(
    a0: &[f64],
    a1: &[f64],
    b: &[f64],
    n: usize,
    bj: usize,
    c0: &mut [f64],
    c1: &mut [f64],
) {
    let mut acc0 = [0.0f64; TILE];
    let mut acc1 = [0.0f64; TILE];
    acc0.copy_from_slice(&c0[..TILE]);
    acc1.copy_from_slice(&c1[..TILE]);
    let mut b_off = bj;
    for (&a0k, &a1k) in a0.iter().zip(a1) {
        let b_tile = &b[b_off..b_off + TILE];
        for (t, &bv) in b_tile.iter().enumerate() {
            acc0[t] += a0k * bv;
            acc1[t] += a1k * bv;
        }
        b_off += n;
    }
    c0[..TILE].copy_from_slice(&acc0);
    c1[..TILE].copy_from_slice(&acc1);
}

/// The shared cache-blocked GEMM kernel: `c += a · b` over row-major slices
/// (`a: m×k`, `b: k×n`, `c: m×n`).
///
/// For every output element the `k` terms are added in strictly increasing
/// order — blocking and register tiling only reorder *which* elements are
/// in flight, never the per-element summation order — so for finite inputs
/// the result is bit-identical to [`Matrix::matmul_reference`]. (The
/// reference skips zero `a` entries; adding the skipped `±0.0` products
/// cannot change a finite IEEE-754 sum, and the scalar tail keeps the skip
/// as a sparse fast path.)
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub fn gemm_acc(m: usize, k: usize, n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k, "gemm lhs shape mismatch");
    assert_eq!(b.len(), k * n, "gemm rhs shape mismatch");
    assert_eq!(c.len(), m * n, "gemm out shape mismatch");
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let b_panel = &b[k0 * n..];
        // Column tiles outermost so one `kc × TILE` panel of `b` stays
        // L1-resident while every row of `a` streams past it.
        let mut j = 0;
        while j + NR <= n {
            for i in 0..m {
                let a_panel = &a[i * k + k0..i * k + k0 + kc];
                tile_acc::<NR>(a_panel, b_panel, n, j, &mut c[i * n + j..i * n + j + NR]);
            }
            j += NR;
        }
        // Narrowing tile cascade (8 → 4 → 2) keeps the b loads contiguous
        // for all but at most one remainder column. Narrow tiles pair rows
        // (`tile_acc2`) so enough accumulator chains stay in flight.
        macro_rules! narrow_tile_pass {
            ($tile:expr) => {
                while j + $tile <= n {
                    let mut i = 0;
                    while i + 2 <= m {
                        let (rows0, rows1) = c.split_at_mut((i + 1) * n);
                        tile_acc2::<$tile>(
                            &a[i * k + k0..i * k + k0 + kc],
                            &a[(i + 1) * k + k0..(i + 1) * k + k0 + kc],
                            b_panel,
                            n,
                            j,
                            &mut rows0[i * n + j..i * n + j + $tile],
                            &mut rows1[j..j + $tile],
                        );
                        i += 2;
                    }
                    if i < m {
                        let a_panel = &a[i * k + k0..i * k + k0 + kc];
                        tile_acc::<$tile>(
                            a_panel,
                            b_panel,
                            n,
                            j,
                            &mut c[i * n + j..i * n + j + $tile],
                        );
                    }
                    j += $tile;
                }
            };
        }
        narrow_tile_pass!(NR2);
        narrow_tile_pass!(4);
        narrow_tile_pass!(2);
        // Scalar tail (at most one column); keeps the reference's
        // zero-skip as a sparse fast path (bit-neutral, see above).
        for jj in j..n {
            for i in 0..m {
                let a_panel = &a[i * k + k0..i * k + k0 + kc];
                let mut acc = c[i * n + jj];
                for (kk, &aik) in a_panel.iter().enumerate() {
                    if aik == 0.0 {
                        continue;
                    }
                    acc += aik * b_panel[kk * n + jj];
                }
                c[i * n + jj] = acc;
            }
        }
        k0 += kc;
    }
}

/// A dense `rows × cols` matrix of `f64` in row-major order.
///
/// ```
/// use pictor_ml::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "empty matrix");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix that owns `data` with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// A single-row matrix from a slice.
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Xavier/Glorot-uniform initialization for a `rows × cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut SmallRng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of the backing storage (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage (row-major).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs` via the blocked [`gemm_acc`] kernel.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Writes `self · rhs` into caller-owned `out` (overwriting it) without
    /// allocating — the hot-loop entry point onto [`gemm_acc`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or if `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul out shape mismatch"
        );
        out.data.iter_mut().for_each(|v| *v = 0.0);
        gemm_acc(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// Accumulates `self · rhs` into `out` (`out += self · rhs`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_acc(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, rhs.cols),
            "matmul out shape mismatch"
        );
        gemm_acc(
            self.rows,
            self.cols,
            rhs.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        );
    }

    /// The seed repository's naive triple-loop product, kept as the
    /// reference implementation the kernel-equivalence tests hold
    /// [`Matrix::matmul`] to, bit for bit.
    pub fn matmul_reference(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let lhs_row = k * rhs.cols;
                let out_row = i * rhs.cols;
                for j in 0..rhs.cols {
                    out.data[out_row + j] += a * rhs.data[lhs_row + j];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose into caller-owned `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, self.rows),
            "transpose out shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Element-wise sum in place (`self += rhs`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_in_place(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Adds a row vector to every row in place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols`.
    pub fn add_row_broadcast_in_place(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, b) in row.iter_mut().zip(&bias.data) {
                *v += b;
            }
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Element-wise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sets every element to zero (scratch-matrix reset).
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Consumes the matrix, returning its backing storage (for returning
    /// buffers to a [`crate::Scratch`] pool).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a * b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Sums each column into a `1 × cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, -2.0, 0.5]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_bad_shapes_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn add_and_hadamard() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
    }

    #[test]
    fn bias_broadcast() {
        let x = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y, Matrix::from_rows(&[&[11.0, 21.0], &[12.0, 22.0]]));
    }

    #[test]
    fn sum_rows_sums_columns() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(x.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = Matrix::xavier(20, 30, &mut rng);
        let bound = (6.0 / 50.0_f64).sqrt();
        assert!(w.data().iter().all(|v| v.abs() <= bound));
        assert!(w.norm() > 0.0);
    }

    #[test]
    fn map_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let _ = Matrix::zeros(1, 1).get(0, 1);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panics() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }
}
