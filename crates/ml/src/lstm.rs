//! A single-layer LSTM with backpropagation through time.
//!
//! The intelligent client's input generator is an LSTM (the paper uses
//! Hochreiter–Schmidhuber LSTM via TensorFlow, §3.1). Gate layout in the
//! fused weight matrices is `[i | f | g | o]` (input, forget, candidate,
//! output).
//!
//! All four gate products are batched into single `[B × 4H]` GEMMs on the
//! shared blocked kernel, and every per-step tensor (inputs, gate
//! activations, cell states) lives in preallocated per-layer arenas reused
//! across calls — the seed's per-timestep `clone()`s are gone. The
//! elementwise pipeline keeps the seed's exact operation order, so results
//! are bit-identical to [`Lstm::infer_reference`] (the original kernel,
//! kept as the checked reference).

use rand::rngs::SmallRng;

use crate::scratch::Scratch;
use crate::tensor::{gemm_acc, Matrix};

fn sigmoid(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

/// The single per-step elementwise gate pipeline shared by `step`,
/// `forward` and `infer` — the seed's exact operation order: combine the
/// two pre-activation halves as `(zx + zh) + b`, apply the activations,
/// update `c`/`h` in place. `record` observes
/// `(e, i, f, g, o, c, tanh_c)` per element (forward uses it to fill the
/// BPTT arenas; the other paths pass a no-op).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gate_step(
    b: &[f64],
    hd: usize,
    batch: usize,
    zx_t: &[f64],
    zh: &mut [f64],
    c_cur: &mut [f64],
    h_cur: &mut [f64],
    mut record: impl FnMut(usize, f64, f64, f64, f64, f64, f64),
) {
    for r in 0..batch {
        let zr = r * 4 * hd;
        for (col, &bv) in b.iter().enumerate() {
            zh[zr + col] = (zx_t[zr + col] + zh[zr + col]) + bv;
        }
    }
    for r in 0..batch {
        for j in 0..hd {
            let z = &zh[r * 4 * hd..];
            let i = sigmoid(z[j]);
            let f = sigmoid(z[hd + j]);
            let g = z[2 * hd + j].tanh();
            let o = sigmoid(z[3 * hd + j]);
            let e = r * hd + j;
            let c = f * c_cur[e] + i * g;
            let tc = c.tanh();
            record(e, i, f, g, o, c, tc);
            c_cur[e] = c;
            h_cur[e] = o * tc;
        }
    }
}

/// Recurrent state carried between steps during streaming inference.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden state `[batch, hidden]`.
    pub h: Matrix,
    /// Cell state `[batch, hidden]`.
    pub c: Matrix,
}

/// A single-layer LSTM.
///
/// ```
/// use pictor_ml::{Lstm, Matrix, Scratch};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let mut ws = Scratch::new();
/// let mut lstm = Lstm::new(3, 4, &mut rng);
/// let seq = vec![Matrix::zeros(2, 3), Matrix::zeros(2, 3)];
/// let h = lstm.forward(&seq, &mut ws);
/// assert_eq!((h.rows(), h.cols()), (2, 4));
/// ```
#[derive(Debug, Clone)]
pub struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    wx: Matrix, // [input, 4*hidden]
    wh: Matrix, // [hidden, 4*hidden]
    b: Matrix,  // [1, 4*hidden]
    // BPTT arenas filled by `forward`, indexed [t][batch][dim]; reused
    // across calls (no per-timestep allocation).
    steps: usize,
    batch: usize,
    a_x: Vec<f64>,
    a_hprev: Vec<f64>,
    a_cprev: Vec<f64>,
    a_i: Vec<f64>,
    a_f: Vec<f64>,
    a_g: Vec<f64>,
    a_o: Vec<f64>,
    a_c: Vec<f64>,
    /// tanh(c) per step, computed in forward and reused by backward.
    a_tc: Vec<f64>,
    /// Gate pre-activation gradients per step, staged so the input
    /// gradients can be produced by one batched GEMM.
    a_dz: Vec<f64>,
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights and forget-gate bias
    /// of 1 (standard trick for gradient flow).
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut SmallRng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden_dim);
        for j in hidden_dim..2 * hidden_dim {
            b.set(0, j, 1.0);
        }
        Lstm {
            input_dim,
            hidden_dim,
            wx: Matrix::xavier(input_dim, 4 * hidden_dim, rng),
            wh: Matrix::xavier(hidden_dim, 4 * hidden_dim, rng),
            b,
            steps: 0,
            batch: 0,
            a_x: Vec::new(),
            a_hprev: Vec::new(),
            a_cprev: Vec::new(),
            a_i: Vec::new(),
            a_f: Vec::new(),
            a_g: Vec::new(),
            a_o: Vec::new(),
            a_c: Vec::new(),
            a_tc: Vec::new(),
            a_dz: Vec::new(),
            dwx: Matrix::zeros(input_dim, 4 * hidden_dim),
            dwh: Matrix::zeros(hidden_dim, 4 * hidden_dim),
            db: Matrix::zeros(1, 4 * hidden_dim),
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// A fresh zero state for a batch.
    pub fn zero_state(&self, batch: usize) -> LstmState {
        LstmState {
            h: Matrix::zeros(batch, self.hidden_dim),
            c: Matrix::zeros(batch, self.hidden_dim),
        }
    }

    /// Multiply-accumulate count for one step at batch 1 (FLOP-cost model).
    pub fn macs_per_step(&self) -> u64 {
        ((self.input_dim + self.hidden_dim) * 4 * self.hidden_dim) as u64
    }

    /// One streaming step: updates `state` in place (no per-step
    /// allocations beyond warm-up of the scratch pool). All four gate
    /// products run as two `[B × 4H]` GEMMs on the shared kernel.
    pub fn step(&self, state: &mut LstmState, x: &Matrix, ws: &mut Scratch) {
        let batch = x.rows();
        let (i_n, hd) = (self.input_dim, self.hidden_dim);
        let mut zx = ws.take(batch * 4 * hd);
        let mut zh = ws.take(batch * 4 * hd);
        gemm_acc(batch, i_n, 4 * hd, x.data(), self.wx.data(), &mut zx);
        gemm_acc(batch, hd, 4 * hd, state.h.data(), self.wh.data(), &mut zh);
        let (h_out, c_out) = (state.h.data_mut(), state.c.data_mut());
        gate_step(
            self.b.data(),
            hd,
            batch,
            &zx,
            &mut zh,
            c_out,
            h_out,
            |_, _, _, _, _, _, _| {},
        );
        ws.put(zx);
        ws.put(zh);
    }

    /// Forward pass over a sequence (`xs[t]: [batch, input]`), filling the
    /// BPTT arenas. Returns the final hidden state `[batch, hidden]`.
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence.
    pub fn forward(&mut self, xs: &[Matrix], ws: &mut Scratch) -> Matrix {
        assert!(!xs.is_empty(), "empty sequence");
        let batch = xs[0].rows();
        let (i_n, hd) = (self.input_dim, self.hidden_dim);
        let t_len = xs.len();
        self.steps = t_len;
        self.batch = batch;
        // Arenas are fully overwritten below; only reshape when the
        // sequence geometry changes (no per-call zero fill).
        let resize = |v: &mut Vec<f64>, len: usize| {
            if v.len() != len {
                v.clear();
                v.resize(len, 0.0);
            }
        };
        resize(&mut self.a_x, t_len * batch * i_n);
        resize(&mut self.a_hprev, t_len * batch * hd);
        resize(&mut self.a_cprev, t_len * batch * hd);
        resize(&mut self.a_i, t_len * batch * hd);
        resize(&mut self.a_f, t_len * batch * hd);
        resize(&mut self.a_g, t_len * batch * hd);
        resize(&mut self.a_o, t_len * batch * hd);
        resize(&mut self.a_c, t_len * batch * hd);
        resize(&mut self.a_tc, t_len * batch * hd);
        let mut h_cur = ws.take(batch * hd);
        let mut c_cur = ws.take(batch * hd);
        // All timestep input projections in one GEMM: the arena already
        // holds the sequence as a stacked [T·B, input] matrix.
        for (t, x) in xs.iter().enumerate() {
            self.a_x[t * batch * i_n..(t + 1) * batch * i_n].copy_from_slice(x.data());
        }
        let mut zx = ws.take(t_len * batch * 4 * hd);
        gemm_acc(
            t_len * batch,
            i_n,
            4 * hd,
            &self.a_x,
            self.wx.data(),
            &mut zx,
        );
        let mut z2 = ws.take(batch * 4 * hd);
        for t in 0..t_len {
            let bh = t * batch * hd;
            self.a_hprev[bh..bh + batch * hd].copy_from_slice(&h_cur);
            self.a_cprev[bh..bh + batch * hd].copy_from_slice(&c_cur);
            z2.iter_mut().for_each(|v| *v = 0.0);
            gemm_acc(batch, hd, 4 * hd, &h_cur, self.wh.data(), &mut z2);
            let zx_t = &zx[t * batch * 4 * hd..(t + 1) * batch * 4 * hd];
            let (a_i, a_f, a_g, a_o, a_c, a_tc) = (
                &mut self.a_i,
                &mut self.a_f,
                &mut self.a_g,
                &mut self.a_o,
                &mut self.a_c,
                &mut self.a_tc,
            );
            gate_step(
                self.b.data(),
                hd,
                batch,
                zx_t,
                &mut z2,
                &mut c_cur,
                &mut h_cur,
                |e, i, f, g, o, c, tc| {
                    a_i[bh + e] = i;
                    a_f[bh + e] = f;
                    a_g[bh + e] = g;
                    a_o[bh + e] = o;
                    a_c[bh + e] = c;
                    a_tc[bh + e] = tc;
                },
            );
        }
        ws.put(zx);
        ws.put(z2);
        ws.put(c_cur);
        Matrix::from_vec(batch, hd, h_cur)
    }

    /// Inference-only forward pass returning the final hidden state. Like
    /// [`Lstm::forward`], the per-timestep input projections are batched
    /// into a single GEMM.
    pub fn infer(&self, xs: &[Matrix], ws: &mut Scratch) -> Matrix {
        assert!(!xs.is_empty(), "empty sequence");
        let batch = xs[0].rows();
        let (i_n, hd) = (self.input_dim, self.hidden_dim);
        let t_len = xs.len();
        let mut stacked = ws.take(t_len * batch * i_n);
        for (t, x) in xs.iter().enumerate() {
            stacked[t * batch * i_n..(t + 1) * batch * i_n].copy_from_slice(x.data());
        }
        let mut zx = ws.take(t_len * batch * 4 * hd);
        gemm_acc(
            t_len * batch,
            i_n,
            4 * hd,
            &stacked,
            self.wx.data(),
            &mut zx,
        );
        ws.put(stacked);
        let mut h_cur = ws.take(batch * hd);
        let mut c_cur = ws.take(batch * hd);
        let mut z2 = ws.take(batch * 4 * hd);
        for t in 0..t_len {
            z2.iter_mut().for_each(|v| *v = 0.0);
            gemm_acc(batch, hd, 4 * hd, &h_cur, self.wh.data(), &mut z2);
            let zx_t = &zx[t * batch * 4 * hd..(t + 1) * batch * 4 * hd];
            gate_step(
                self.b.data(),
                hd,
                batch,
                zx_t,
                &mut z2,
                &mut c_cur,
                &mut h_cur,
                |_, _, _, _, _, _, _| {},
            );
        }
        ws.put(zx);
        ws.put(z2);
        ws.put(c_cur);
        Matrix::from_vec(batch, hd, h_cur)
    }

    /// BPTT from a gradient on the final hidden state. Accumulates weight
    /// gradients and returns per-step input gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Lstm::forward`].
    pub fn backward(&mut self, d_h_last: &Matrix, ws: &mut Scratch) -> Vec<Matrix> {
        assert!(self.steps > 0, "backward before forward");
        let (i_n, hd) = (self.input_dim, self.hidden_dim);
        let (t_len, batch) = (self.steps, self.batch);
        self.dwx.fill_zero();
        self.dwh.fill_zero();
        self.db.fill_zero();
        if self.a_dz.len() != t_len * batch * 4 * hd {
            self.a_dz.clear();
            self.a_dz.resize(t_len * batch * 4 * hd, 0.0);
        }
        let mut d_h = ws.take(batch * hd);
        d_h.copy_from_slice(d_h_last.data());
        let mut d_c = ws.take(batch * hd);
        let mut xt = ws.take_uninit(i_n * batch);
        let mut hpt = ws.take_uninit(hd * batch);
        let mut p_dwx = ws.take(i_n * 4 * hd);
        let mut p_dwh = ws.take(hd * 4 * hd);
        let mut s_db = ws.take(4 * hd);
        // Transposed weights, computed once per backward pass.
        let mut wxt = ws.take_matrix(4 * hd, i_n);
        self.wx.transpose_into(&mut wxt);
        let mut wht = ws.take_matrix(4 * hd, hd);
        self.wh.transpose_into(&mut wht);
        for t in (0..t_len).rev() {
            let bh = t * batch * hd;
            let dz = &mut self.a_dz[t * batch * 4 * hd..(t + 1) * batch * 4 * hd];
            for e in 0..batch * hd {
                let (i, f, g, o, c_prev) = (
                    self.a_i[bh + e],
                    self.a_f[bh + e],
                    self.a_g[bh + e],
                    self.a_o[bh + e],
                    self.a_cprev[bh + e],
                );
                // tanh(c) was computed by forward; reuse the cached value.
                let tanh_c = self.a_tc[bh + e];
                // dL/do and the carry into dL/dc (σ' = σ(1-σ), tanh' = 1-tanh²).
                let d_o = d_h[e] * tanh_c;
                d_c[e] += d_h[e] * o * (1.0 - tanh_c * tanh_c);
                let d_i = d_c[e] * g;
                let d_f = d_c[e] * c_prev;
                let d_g = d_c[e] * i;
                let (r, j) = (e / hd, e % hd);
                let zrow = r * 4 * hd;
                dz[zrow + j] = d_i * i * (1.0 - i);
                dz[zrow + hd + j] = d_f * f * (1.0 - f);
                dz[zrow + 2 * hd + j] = d_g * (1.0 - g * g);
                dz[zrow + 3 * hd + j] = d_o * o * (1.0 - o);
            }
            // dWx += xᵀ·dz, dWh += h_prevᵀ·dz, db += Σ_rows dz — each
            // product is computed into scratch first so the accumulation
            // grouping matches the seed exactly.
            let x_t = &self.a_x[t * batch * i_n..(t + 1) * batch * i_n];
            for r in 0..batch {
                for ii in 0..i_n {
                    xt[ii * batch + r] = x_t[r * i_n + ii];
                }
            }
            p_dwx.iter_mut().for_each(|v| *v = 0.0);
            gemm_acc(i_n, batch, 4 * hd, &xt, dz, &mut p_dwx);
            for (a, &p) in self.dwx.data_mut().iter_mut().zip(&p_dwx) {
                *a += p;
            }
            let hp = &self.a_hprev[bh..bh + batch * hd];
            for r in 0..batch {
                for jj in 0..hd {
                    hpt[jj * batch + r] = hp[r * hd + jj];
                }
            }
            p_dwh.iter_mut().for_each(|v| *v = 0.0);
            gemm_acc(hd, batch, 4 * hd, &hpt, dz, &mut p_dwh);
            for (a, &p) in self.dwh.data_mut().iter_mut().zip(&p_dwh) {
                *a += p;
            }
            s_db.iter_mut().for_each(|v| *v = 0.0);
            for r in 0..batch {
                for (col, s) in s_db.iter_mut().enumerate() {
                    *s += dz[r * 4 * hd + col];
                }
            }
            for (a, &p) in self.db.data_mut().iter_mut().zip(&s_db) {
                *a += p;
            }
            d_h.iter_mut().for_each(|v| *v = 0.0);
            gemm_acc(batch, 4 * hd, hd, dz, wht.data(), &mut d_h);
            for (dc, &f) in d_c.iter_mut().zip(&self.a_f[bh..bh + batch * hd]) {
                *dc *= f;
            }
        }
        // Every step's input gradient in one batched GEMM: each dxs row is
        // an independent dot product, so stacking the per-step dz blocks
        // changes nothing about per-element summation order.
        let mut dxs_flat = ws.take(t_len * batch * i_n);
        gemm_acc(
            t_len * batch,
            4 * hd,
            i_n,
            &self.a_dz,
            wxt.data(),
            &mut dxs_flat,
        );
        let mut dxs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            dxs.push(Matrix::from_vec(
                batch,
                i_n,
                dxs_flat[t * batch * i_n..(t + 1) * batch * i_n].to_vec(),
            ));
        }
        ws.put(dxs_flat);
        ws.put_matrix(wxt);
        ws.put_matrix(wht);
        ws.put(d_h);
        ws.put(d_c);
        ws.put(xt);
        ws.put(hpt);
        ws.put(p_dwx);
        ws.put(p_dwh);
        ws.put(s_db);
        dxs
    }

    /// Parameter/gradient pairs for the optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut [f64], &[f64])> {
        vec![
            (self.wx.data_mut(), self.dwx.data()),
            (self.wh.data_mut(), self.dwh.data()),
            (self.b.data_mut(), self.db.data()),
        ]
    }

    /// The seed's per-step kernel (naive matmuls, fresh allocations every
    /// step), kept as the reference implementation for equivalence tests
    /// and perf baselines.
    pub fn infer_reference(&self, xs: &[Matrix]) -> Matrix {
        assert!(!xs.is_empty(), "empty sequence");
        let hd = self.hidden_dim;
        let mut state = self.zero_state(xs[0].rows());
        for x in xs {
            let z = x
                .matmul_reference(&self.wx)
                .add(&state.h.matmul_reference(&self.wh))
                .add_row_broadcast(&self.b);
            let batch = x.rows();
            let mut i = Matrix::zeros(batch, hd);
            let mut f = Matrix::zeros(batch, hd);
            let mut g = Matrix::zeros(batch, hd);
            let mut o = Matrix::zeros(batch, hd);
            for r in 0..batch {
                for j in 0..hd {
                    i.set(r, j, sigmoid(z.get(r, j)));
                    f.set(r, j, sigmoid(z.get(r, hd + j)));
                    g.set(r, j, z.get(r, 2 * hd + j).tanh());
                    o.set(r, j, sigmoid(z.get(r, 3 * hd + j)));
                }
            }
            let c = f.hadamard(&state.c).add(&i.hadamard(&g));
            let h = o.hadamard(&c.map(f64::tanh));
            state.c = c;
            state.h = h;
        }
        state.h
    }

    /// The seed's full training step (forward with per-step `clone()`
    /// caches + BPTT on naive matmuls), kept as the reference
    /// implementation for equivalence tests. Returns `(h_last, dxs, dwx,
    /// dwh, db)` without touching the layer's state.
    #[allow(clippy::type_complexity)]
    pub fn train_seq_reference(
        &self,
        xs: &[Matrix],
        d_h_last: &Matrix,
    ) -> (Matrix, Vec<Matrix>, Matrix, Matrix, Matrix) {
        assert!(!xs.is_empty(), "empty sequence");
        let hd = self.hidden_dim;
        let batch = xs[0].rows();
        struct StepCache {
            x: Matrix,
            h_prev: Matrix,
            c_prev: Matrix,
            i: Matrix,
            f: Matrix,
            g: Matrix,
            o: Matrix,
            c: Matrix,
        }
        // Forward, caching every step exactly like the seed did.
        let mut caches: Vec<StepCache> = Vec::new();
        let mut state = self.zero_state(batch);
        for x in xs {
            let h_prev = state.h.clone();
            let c_prev = state.c.clone();
            let z = x
                .matmul_reference(&self.wx)
                .add(&h_prev.matmul_reference(&self.wh))
                .add_row_broadcast(&self.b);
            let mut i = Matrix::zeros(batch, hd);
            let mut f = Matrix::zeros(batch, hd);
            let mut g = Matrix::zeros(batch, hd);
            let mut o = Matrix::zeros(batch, hd);
            for r in 0..batch {
                for j in 0..hd {
                    i.set(r, j, sigmoid(z.get(r, j)));
                    f.set(r, j, sigmoid(z.get(r, hd + j)));
                    g.set(r, j, z.get(r, 2 * hd + j).tanh());
                    o.set(r, j, sigmoid(z.get(r, 3 * hd + j)));
                }
            }
            let c = f.hadamard(&c_prev).add(&i.hadamard(&g));
            let h = o.hadamard(&c.map(f64::tanh));
            caches.push(StepCache {
                x: x.clone(),
                h_prev,
                c_prev,
                i,
                f,
                g,
                o,
                c: c.clone(),
            });
            state.c = c;
            state.h = h;
        }
        // Backward (the seed's BPTT loop verbatim).
        let mut dwx = Matrix::zeros(self.input_dim, 4 * hd);
        let mut dwh = Matrix::zeros(hd, 4 * hd);
        let mut db = Matrix::zeros(1, 4 * hd);
        let mut d_h = d_h_last.clone();
        let mut d_c = Matrix::zeros(batch, hd);
        let mut dxs = vec![Matrix::zeros(batch, self.input_dim); caches.len()];
        for t in (0..caches.len()).rev() {
            let cache = &caches[t];
            let tanh_c = cache.c.map(f64::tanh);
            let d_o = d_h.hadamard(&tanh_c);
            let one_minus_tc2 = tanh_c.map(|v| 1.0 - v * v);
            d_c = d_c.add(&d_h.hadamard(&cache.o).hadamard(&one_minus_tc2));
            let d_i = d_c.hadamard(&cache.g);
            let d_f = d_c.hadamard(&cache.c_prev);
            let d_g = d_c.hadamard(&cache.i);
            let mut dz = Matrix::zeros(batch, 4 * hd);
            for r in 0..batch {
                for j in 0..hd {
                    let iv = cache.i.get(r, j);
                    let fv = cache.f.get(r, j);
                    let gv = cache.g.get(r, j);
                    let ov = cache.o.get(r, j);
                    dz.set(r, j, d_i.get(r, j) * iv * (1.0 - iv));
                    dz.set(r, hd + j, d_f.get(r, j) * fv * (1.0 - fv));
                    dz.set(r, 2 * hd + j, d_g.get(r, j) * (1.0 - gv * gv));
                    dz.set(r, 3 * hd + j, d_o.get(r, j) * ov * (1.0 - ov));
                }
            }
            dwx = dwx.add(&cache.x.transpose().matmul_reference(&dz));
            dwh = dwh.add(&cache.h_prev.transpose().matmul_reference(&dz));
            db = db.add(&dz.sum_rows());
            dxs[t] = dz.matmul_reference(&self.wx.transpose());
            d_h = dz.matmul_reference(&self.wh.transpose());
            d_c = d_c.hadamard(&cache.f);
        }
        (state.h, dxs, dwx, dwh, db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use rand::SeedableRng;

    fn make_seq(rng: &mut SmallRng, t: usize, batch: usize, dim: usize) -> Vec<Matrix> {
        (0..t).map(|_| Matrix::xavier(batch, dim, rng)).collect()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(3, 5, &mut rng);
        let xs = make_seq(&mut rng, 4, 2, 3);
        let h = lstm.forward(&xs, &mut ws);
        assert_eq!((h.rows(), h.cols()), (2, 5));
        assert_eq!(lstm.infer(&xs, &mut ws), h);
    }

    #[test]
    fn matches_reference_bitwise() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut ws = Scratch::new();
        let lstm = Lstm::new(3, 4, &mut rng);
        let xs = make_seq(&mut rng, 7, 2, 3);
        assert_eq!(
            lstm.infer(&xs, &mut ws),
            lstm.infer_reference(&xs),
            "batched-gate kernel must be bit-exact vs the seed kernel"
        );
    }

    #[test]
    fn train_step_matches_reference_bitwise() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = make_seq(&mut rng, 5, 2, 3);
        let d_h = Matrix::xavier(2, 4, &mut rng);
        let h = lstm.forward(&xs, &mut ws);
        let dxs = lstm.backward(&d_h, &mut ws);
        let (h_ref, dxs_ref, dwx_ref, dwh_ref, db_ref) = lstm.train_seq_reference(&xs, &d_h);
        assert_eq!(h, h_ref, "forward must be bit-exact");
        assert_eq!(dxs, dxs_ref, "input grads must be bit-exact");
        assert_eq!(lstm.dwx, dwx_ref, "dwx must be bit-exact");
        assert_eq!(lstm.dwh, dwh_ref, "dwh must be bit-exact");
        assert_eq!(lstm.db, db_ref, "db must be bit-exact");
    }

    #[test]
    fn step_matches_forward() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = make_seq(&mut rng, 5, 1, 3);
        let h_forward = lstm.forward(&xs, &mut ws);
        let mut state = lstm.zero_state(1);
        for x in &xs {
            lstm.step(&mut state, x, &mut ws);
        }
        for i in 0..4 {
            assert!((h_forward.get(0, i) - state.h.get(0, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = make_seq(&mut rng, 3, 2, 2);
        let target = Matrix::xavier(2, 3, &mut rng);
        let h = lstm.forward(&xs, &mut ws);
        let (_, d_h) = mse_loss(&h, &target);
        lstm.backward(&d_h, &mut ws);
        let analytic: Vec<Vec<f64>> = lstm
            .params_and_grads()
            .iter()
            .map(|(_, g)| g.to_vec())
            .collect();
        let eps = 1e-6;
        for p in 0..3 {
            let len = analytic[p].len();
            for i in (0..len).step_by(4) {
                {
                    let mut pg = lstm.params_and_grads();
                    pg[p].0[i] += eps;
                }
                let (l1, _) = mse_loss(&lstm.infer(&xs, &mut ws), &target);
                {
                    let mut pg = lstm.params_and_grads();
                    pg[p].0[i] -= 2.0 * eps;
                }
                let (l2, _) = mse_loss(&lstm.infer(&xs, &mut ws), &target);
                {
                    let mut pg = lstm.params_and_grads();
                    pg[p].0[i] += eps;
                }
                let num = (l1 - l2) / (2.0 * eps);
                let ana = analytic[p][i];
                assert!(
                    (ana - num).abs() < 1e-7 + 1e-4 * num.abs(),
                    "param {p} idx {i}: analytic {ana} vs numeric {num}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = make_seq(&mut rng, 3, 1, 2);
        let target = Matrix::xavier(1, 3, &mut rng);
        let h = lstm.forward(&xs, &mut ws);
        let (_, d_h) = mse_loss(&h, &target);
        let dxs = lstm.backward(&d_h, &mut ws);
        let eps = 1e-6;
        for t in 0..xs.len() {
            for i in 0..xs[t].data().len() {
                let mut xs_p = xs.clone();
                xs_p[t].data_mut()[i] += eps;
                let (l1, _) = mse_loss(&lstm.infer(&xs_p, &mut ws), &target);
                xs_p[t].data_mut()[i] -= 2.0 * eps;
                let (l2, _) = mse_loss(&lstm.infer(&xs_p, &mut ws), &target);
                let num = (l1 - l2) / (2.0 * eps);
                let ana = dxs[t].data()[i];
                assert!(
                    (ana - num).abs() < 1e-7 + 1e-4 * num.abs(),
                    "t={t} i={i}: {ana} vs {num}"
                );
            }
        }
    }

    #[test]
    fn can_learn_to_remember_first_input() {
        // Task: output the first element of the sequence (long-range memory).
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(1, 8, &mut rng);
        let mut head = crate::dense::Dense::new(8, 1, crate::dense::Activation::Identity, &mut rng);
        let mut adam = crate::optim::Adam::new(0.01);
        let mut last_loss = f64::INFINITY;
        for epoch in 0..300 {
            use rand::Rng;
            let first: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            let mut xs = vec![Matrix::row_vector(&[first])];
            for _ in 0..4 {
                xs.push(Matrix::row_vector(&[rng.gen_range(-0.2..0.2)]));
            }
            let h = lstm.forward(&xs, &mut ws);
            let y = head.forward(&h);
            let target = Matrix::row_vector(&[first]);
            let (loss, d_y) = mse_loss(&y, &target);
            let d_h = head.backward(&d_y, &mut ws);
            lstm.backward(&d_h, &mut ws);
            let mut params = lstm.params_and_grads();
            params.extend(head.params_and_grads());
            adam.step_slices(&mut params);
            if epoch >= 290 {
                last_loss = loss;
            }
        }
        assert!(last_loss < 0.1, "final loss {last_loss}");
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ws = Scratch::new();
        let mut lstm = Lstm::new(1, 1, &mut rng);
        let _ = lstm.forward(&[], &mut ws);
    }
}
