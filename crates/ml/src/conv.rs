//! 2-D convolution and pooling over small images.
//!
//! The intelligent client's vision network (the MobileNets stand-in) runs a
//! small convolution stack over frame cells. Layout is NCHW in a flat
//! [`Tensor4`].
//!
//! Forward and backward are both lowered onto the shared blocked GEMM
//! kernel ([`crate::tensor::gemm_acc`]) via im2col: the forward pass is one
//! `W [OC, C·k²] · panel [C·k², N·H·W]` product (transposed im2col, so the
//! wide position dimension feeds the register-tiled kernel), the weight
//! gradient is one `[OC, N·H·W] · [N·H·W, C·k²]` product, and the input
//! gradient is one `[IC, OC·k²] · [OC·k², N·H·W]` product over the
//! transposed im2col of the ReLU-masked output gradient against flipped
//! weights. The tap orderings are chosen so every output element
//! accumulates its terms in exactly the order the seed's 7-deep scalar
//! loops did — results are bit-identical
//! ([`Conv2d::infer_reference`] / [`Conv2d::backward_reference`] keep the
//! original loops as the checked reference).

use rand::rngs::SmallRng;
use rand::Rng;

use crate::scratch::Scratch;
use crate::tensor::gemm_acc;

/// A flat NCHW tensor.
///
/// ```
/// use pictor_ml::Tensor4;
/// let mut t = Tensor4::zeros(1, 3, 4, 4);
/// t.set(0, 2, 1, 1, 5.0);
/// assert_eq!(t.get(0, 2, 1, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    data: Vec<f64>,
}

impl Tensor4 {
    /// A zero tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Wraps a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n*c*h*w`.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "shape mismatch");
        Tensor4 { n, c, h, w, data }
    }

    #[inline]
    fn idx(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && y < self.h && x < self.w);
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Element accessor.
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f64 {
        self.data[self.idx(n, c, y, x)]
    }

    /// Element setter.
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f64) {
        let i = self.idx(n, c, y, x);
        self.data[i] = v;
    }

    /// Flat storage.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat storage.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor, returning its backing storage (for returning
    /// buffers to a [`Scratch`] pool).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Flattens each batch element into a row of a `[n, c*h*w]` matrix.
    pub fn flatten(&self) -> crate::tensor::Matrix {
        crate::tensor::Matrix::from_vec(self.n, self.c * self.h * self.w, self.data.clone())
    }
}

/// Writes the *transposed* im2col panel (`[c·k², n·h·w]`) — column `r`
/// per position, one row per kernel tap. This is the GEMM-friendly
/// orientation: the convolution becomes `W [OC, C·k²] · panel [C·k², R]`
/// with a wide `R` dimension for the register-tiled kernel, and both the
/// panel fill and the NCHW scatter are contiguous row copies. Every
/// element of `dst` is written (padding taps are zeroed explicitly), so
/// the buffer may hold arbitrary values on entry.
fn im2col_t(src: &Tensor4, k: usize, pad: usize, dst: &mut [f64]) {
    let (h, w) = (src.h, src.w);
    let hw = h * w;
    let rows = src.n * hw;
    debug_assert_eq!(dst.len(), src.c * k * k * rows);
    for c in 0..src.c {
        for ky in 0..k {
            // Valid y range: 0 <= y + ky - pad < h.
            let y0 = pad.saturating_sub(ky);
            let y1 = h.min(h.saturating_add(pad).saturating_sub(ky));
            for kx in 0..k {
                let out_row = ((c * k + ky) * k + kx) * rows;
                // Valid x range: 0 <= x + kx - pad < w.
                let x0 = pad.saturating_sub(kx);
                let x1 = w.min(w.saturating_add(pad).saturating_sub(kx));
                for n in 0..src.n {
                    let dst_plane = out_row + n * hw;
                    let src_plane = (n * src.c + c) * hw;
                    if x0 >= x1 || y0 >= y1 {
                        dst[dst_plane..dst_plane + hw]
                            .iter_mut()
                            .for_each(|v| *v = 0.0);
                        continue;
                    }
                    dst[dst_plane..dst_plane + y0 * w]
                        .iter_mut()
                        .for_each(|v| *v = 0.0);
                    if x0 == 0 && x1 == w {
                        // Full-width taps copy the whole valid block at once.
                        let sy0 = y0 + ky - pad;
                        let len = (y1 - y0) * w;
                        dst[dst_plane + y0 * w..dst_plane + y0 * w + len].copy_from_slice(
                            &src.data[src_plane + sy0 * w..src_plane + sy0 * w + len],
                        );
                    } else {
                        for y in y0..y1 {
                            let d = dst_plane + y * w;
                            let sy = y + ky - pad;
                            let sx0 = x0 + kx - pad;
                            dst[d..d + x0].iter_mut().for_each(|v| *v = 0.0);
                            dst[d + x0..d + x1].copy_from_slice(
                                &src.data[src_plane + sy * w + sx0
                                    ..src_plane + sy * w + sx0 + (x1 - x0)],
                            );
                            dst[d + x1..d + w].iter_mut().for_each(|v| *v = 0.0);
                        }
                    }
                    dst[dst_plane + y1 * w..dst_plane + hw]
                        .iter_mut()
                        .for_each(|v| *v = 0.0);
                }
            }
        }
    }
}

/// Same-padding 3×3-style convolution with stride 1 and ReLU activation.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    /// Weights laid out `[out_ch][in_ch][k][k]`.
    w: Vec<f64>,
    b: Vec<f64>,
    /// Transposed im2col panel of the last `forward` input
    /// (`[in_ch·k², n·h·w]`), reused across calls; backward contracts the
    /// weight gradient directly against it.
    colt: Vec<f64>,
    /// Input geometry of the cached panel: `(n, h, w)`.
    fwd_shape: Option<(usize, usize, usize)>,
    pre_act: Option<Tensor4>,
    dw: Vec<f64>,
    db: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution `in_ch → out_ch` with odd kernel size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, rng: &mut SmallRng) -> Self {
        assert!(k % 2 == 1, "kernel size must be odd, got {k}");
        let fan = (in_ch * k * k + out_ch * k * k) as f64;
        let bound = (6.0 / fan).sqrt();
        let w = (0..out_ch * in_ch * k * k)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Conv2d {
            in_ch,
            out_ch,
            k,
            w,
            b: vec![0.0; out_ch],
            colt: Vec::new(),
            fwd_shape: None,
            pre_act: None,
            dw: vec![0.0; out_ch * in_ch * k * k],
            db: vec![0.0; out_ch],
        }
    }

    /// Number of multiply-accumulates for one forward pass over `h × w`
    /// input (for the FLOP-cost model).
    pub fn macs(&self, h: usize, w: usize) -> u64 {
        (self.out_ch * self.in_ch * self.k * self.k * h * w) as u64
    }

    #[inline]
    fn widx(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
        ((oc * self.in_ch + ic) * self.k + ky) * self.k + kx
    }

    /// Runs the GEMM-lowered convolution over a prepared transposed
    /// im2col panel, writing pre-activation outputs (bias included) into
    /// `out_gt` (`[out_ch, n·h·w]`, bias-initialized here).
    ///
    /// Bias first, then accumulation in tap order — the same per-element
    /// order as the seed's scalar loop (acc starts from `b[oc]`).
    fn gemm_forward_t(&self, colt: &[f64], rows: usize, out_gt: &mut [f64]) {
        let kcols = self.in_ch * self.k * self.k;
        for (oc, row) in out_gt.chunks_exact_mut(rows).enumerate() {
            row.fill(self.b[oc]);
        }
        gemm_acc(self.out_ch, kcols, rows, &self.w, colt, out_gt);
    }

    /// Copies a `[channels, n·h·w]` channel-major panel into an NCHW
    /// tensor (contiguous row copies per `(n, channel)` pair).
    fn scatter_nchw(panel: &[f64], dst: &mut Tensor4) {
        let (n, ch, hw) = (dst.n, dst.c, dst.h * dst.w);
        let rows = n * hw;
        for ni in 0..n {
            for ci in 0..ch {
                let dst_base = (ni * ch + ci) * hw;
                let src_base = ci * rows + ni * hw;
                dst.data[dst_base..dst_base + hw].copy_from_slice(&panel[src_base..src_base + hw]);
            }
        }
    }

    /// Forward pass with ReLU, caching the input and pre-activations for
    /// backprop.
    pub fn forward(&mut self, x: &Tensor4, ws: &mut Scratch) -> Tensor4 {
        assert_eq!(x.c, self.in_ch, "input channel mismatch");
        let (n, h, w) = (x.n, x.h, x.w);
        let rows = n * h * w;
        let kcols = self.in_ch * self.k * self.k;
        if self.colt.len() != kcols * rows {
            self.colt.clear();
            self.colt.resize(kcols * rows, 0.0);
        }
        im2col_t(x, self.k, self.k / 2, &mut self.colt);
        self.fwd_shape = Some((n, h, w));
        let mut out_gt = ws.take_uninit(self.out_ch * rows);
        self.gemm_forward_t(&self.colt, rows, &mut out_gt);
        let mut pre = Tensor4::from_vec(n, self.out_ch, h, w, ws.take_uninit(rows * self.out_ch));
        Self::scatter_nchw(&out_gt, &mut pre);
        ws.put(out_gt);
        let mut out = Tensor4::from_vec(n, self.out_ch, h, w, ws.take_uninit(rows * self.out_ch));
        for (o, &p) in out.data.iter_mut().zip(&pre.data) {
            *o = p.max(0.0);
        }
        // The cached tensors are owned by the layer; recycle the previous
        // ones into the pool.
        if let Some(old) = self.pre_act.replace(pre) {
            ws.put(old.into_vec());
        }
        out
    }

    /// Inference-only forward pass with ReLU (no caches touched).
    pub fn infer(&self, x: &Tensor4, ws: &mut Scratch) -> Tensor4 {
        assert_eq!(x.c, self.in_ch, "input channel mismatch");
        let (n, h, w) = (x.n, x.h, x.w);
        let rows = n * h * w;
        let kcols = self.in_ch * self.k * self.k;
        let mut colt = ws.take_uninit(kcols * rows);
        im2col_t(x, self.k, self.k / 2, &mut colt);
        let mut out_gt = ws.take_uninit(self.out_ch * rows);
        self.gemm_forward_t(&colt, rows, &mut out_gt);
        ws.put(colt);
        let mut out = Tensor4::from_vec(n, self.out_ch, h, w, ws.take_uninit(rows * self.out_ch));
        Self::scatter_nchw(&out_gt, &mut out);
        ws.put(out_gt);
        for v in &mut out.data {
            *v = v.max(0.0);
        }
        out
    }

    /// Backward pass: accumulates `dW`/`db`, returns `∂L/∂x`.
    ///
    /// All three gradient contractions run on the shared kernels,
    /// term-ordered to match the seed's scalar loops bit-for-bit:
    /// `dW = G [OC, R] · panelᵀ` (a row-dot contraction against the
    /// transposed im2col panel the forward pass cached), `db = Σ_R G`, and
    /// `dx = flip(W) [IC, OC·k²] · im2colᵀ(G) [OC·k², R]` where `G` is the
    /// ReLU-masked output gradient (the flipped tap order walks the
    /// contributing output positions in exactly the seed's `(oc, y↑, x↑)`
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Conv2d::forward`].
    pub fn backward(&mut self, d_out: &Tensor4, ws: &mut Scratch) -> Tensor4 {
        let (n, h, w) = self.fwd_shape.expect("backward before forward");
        let pre = self.pre_act.as_ref().expect("backward before forward");
        let rows = n * h * w;
        let hw = h * w;
        let kcols = self.in_ch * self.k * self.k;
        let (oc_n, k) = (self.out_ch, self.k);

        // ReLU-masked output gradient, NCHW (same layout as d_out).
        let mut g = Tensor4::from_vec(n, oc_n, h, w, ws.take_uninit(rows * oc_n));
        for ((gv, &dv), &pv) in g.data.iter_mut().zip(&d_out.data).zip(&pre.data) {
            *gv = if pv > 0.0 { dv } else { 0.0 };
        }

        // gT [out_ch, rows]: per-channel gradients in (n, y, x) order — the
        // db accumulation order of the seed's loops.
        let mut gt = ws.take_uninit(oc_n * rows);
        for ni in 0..n {
            for oc in 0..oc_n {
                let src = (ni * oc_n + oc) * hw;
                let dst = oc * rows + ni * hw;
                gt[dst..dst + hw].copy_from_slice(&g.data[src..src + hw]);
            }
        }
        for (oc, dbv) in self.db.iter_mut().enumerate() {
            *dbv = gt[oc * rows..(oc + 1) * rows].iter().sum();
        }
        ws.put(gt);
        // dW against the forward panel, transposed so the contraction runs
        // on the vector kernel: dwᵀ [C·k², OC] = panel [C·k², R] · g_rm
        // [R, OC]. Per element the positions accumulate in (n, y, x)
        // order — exactly the seed's — and the final transpose into `dw`
        // is a pure permutation.
        let mut g_rm = ws.take_uninit(rows * oc_n);
        for ni in 0..n {
            for oc in 0..oc_n {
                let src = (ni * oc_n + oc) * hw;
                for yx in 0..hw {
                    g_rm[(ni * hw + yx) * oc_n + oc] = g.data[src + yx];
                }
            }
        }
        let mut dwt = ws.take(kcols * oc_n);
        gemm_acc(kcols, rows, oc_n, &self.colt, &g_rm, &mut dwt);
        ws.put(g_rm);
        for oc in 0..oc_n {
            for kc in 0..kcols {
                self.dw[oc * kcols + kc] = dwt[kc * oc_n + oc];
            }
        }
        ws.put(dwt);

        // dx: transposed im2col of the masked gradient against flipped
        // weights. Tap row (oc, ky2↑, kx2↑) of the panel reads output
        // position (y - pad + ky2, x - pad + kx2), so increasing tap order
        // is exactly the seed's (oc, y↑, x↑) accumulation order.
        let mut colgt = ws.take_uninit(oc_n * k * k * rows);
        im2col_t(&g, k, k / 2, &mut colgt);
        ws.put(g.into_vec());
        let mut w2t = ws.take_uninit(self.in_ch * oc_n * k * k);
        for ic in 0..self.in_ch {
            for oc in 0..oc_n {
                for ky2 in 0..k {
                    for kx2 in 0..k {
                        w2t[ic * oc_n * k * k + (oc * k + ky2) * k + kx2] =
                            self.w[self.widx(oc, ic, k - 1 - ky2, k - 1 - kx2)];
                    }
                }
            }
        }
        let mut dxt = ws.take(self.in_ch * rows);
        gemm_acc(self.in_ch, oc_n * k * k, rows, &w2t, &colgt, &mut dxt);
        ws.put(colgt);
        ws.put(w2t);
        let mut dx = Tensor4::from_vec(n, self.in_ch, h, w, ws.take_uninit(rows * self.in_ch));
        Self::scatter_nchw(&dxt, &mut dx);
        ws.put(dxt);
        dx
    }

    /// Parameter/gradient pairs for the optimizer.
    pub fn params_and_grads(&mut self) -> Vec<(&mut [f64], &[f64])> {
        vec![
            (&mut self.w[..], &self.dw[..]),
            (&mut self.b[..], &self.db[..]),
        ]
    }

    // ------------------------------------------------------------------
    // Reference kernels: the seed's scalar loops, kept for equivalence
    // tests and the criterion microbenches.
    // ------------------------------------------------------------------

    /// The seed's 7-deep scalar-loop forward (pre-activation, bias
    /// included) — reference implementation.
    pub fn conv_forward_reference(&self, x: &Tensor4) -> Tensor4 {
        assert_eq!(x.c, self.in_ch, "input channel mismatch");
        let pad = self.k / 2;
        let mut out = Tensor4::zeros(x.n, self.out_ch, x.h, x.w);
        for n in 0..x.n {
            for oc in 0..self.out_ch {
                for y in 0..x.h {
                    for xx in 0..x.w {
                        let mut acc = self.b[oc];
                        for ic in 0..self.in_ch {
                            for ky in 0..self.k {
                                let sy = y as isize + ky as isize - pad as isize;
                                if sy < 0 || sy >= x.h as isize {
                                    continue;
                                }
                                for kx in 0..self.k {
                                    let sx = xx as isize + kx as isize - pad as isize;
                                    if sx < 0 || sx >= x.w as isize {
                                        continue;
                                    }
                                    acc += self.w[self.widx(oc, ic, ky, kx)]
                                        * x.get(n, ic, sy as usize, sx as usize);
                                }
                            }
                        }
                        out.set(n, oc, y, xx, acc);
                    }
                }
            }
        }
        out
    }

    /// Reference ReLU forward (inference semantics).
    pub fn infer_reference(&self, x: &Tensor4) -> Tensor4 {
        let mut pre = self.conv_forward_reference(x);
        for v in &mut pre.data {
            *v = v.max(0.0);
        }
        pre
    }

    /// The seed's scalar-loop backward — reference implementation. Takes
    /// the forward input and pre-activations explicitly (no caches) and
    /// returns `(dx, dw, db)`.
    #[allow(clippy::needless_range_loop)] // verbatim seed loops
    pub fn backward_reference(
        &self,
        x: &Tensor4,
        pre: &Tensor4,
        d_out: &Tensor4,
    ) -> (Tensor4, Vec<f64>, Vec<f64>) {
        let pad = self.k / 2;
        let mut dx = Tensor4::zeros(x.n, x.c, x.h, x.w);
        let mut dw = vec![0.0; self.w.len()];
        let mut db = vec![0.0; self.b.len()];
        for n in 0..x.n {
            for oc in 0..self.out_ch {
                for y in 0..x.h {
                    for xx in 0..x.w {
                        if pre.get(n, oc, y, xx) <= 0.0 {
                            continue;
                        }
                        let g = d_out.get(n, oc, y, xx);
                        if g == 0.0 {
                            continue;
                        }
                        db[oc] += g;
                        for ic in 0..self.in_ch {
                            for ky in 0..self.k {
                                let sy = y as isize + ky as isize - pad as isize;
                                if sy < 0 || sy >= x.h as isize {
                                    continue;
                                }
                                for kx in 0..self.k {
                                    let sx = xx as isize + kx as isize - pad as isize;
                                    if sx < 0 || sx >= x.w as isize {
                                        continue;
                                    }
                                    let wi = self.widx(oc, ic, ky, kx);
                                    dw[wi] += g * x.get(n, ic, sy as usize, sx as usize);
                                    let di = dx.idx(n, ic, sy as usize, sx as usize);
                                    dx.data[di] += g * self.w[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        (dx, dw, db)
    }
}

/// 2×2 max pooling with stride 2 (truncating odd edges).
#[derive(Debug, Clone, Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_shape: (usize, usize, usize, usize),
}

impl MaxPool2 {
    /// Creates the pooling layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Output spatial size for an `h × w` input.
    pub fn out_size(h: usize, w: usize) -> (usize, usize) {
        (h / 2, w / 2)
    }

    /// Forward pass, caching argmax indices for backprop. The argmax buffer
    /// is reused across calls.
    pub fn forward(&mut self, x: &Tensor4) -> Tensor4 {
        let (oh, ow) = Self::out_size(x.h, x.w);
        let mut out = Tensor4::zeros(x.n, x.c, oh, ow);
        self.argmax.clear();
        self.argmax.resize(x.n * x.c * oh * ow, 0);
        self.in_shape = (x.n, x.c, x.h, x.w);
        let mut ai = 0;
        for n in 0..x.n {
            for c in 0..x.c {
                for y in 0..oh {
                    for xx in 0..ow {
                        let mut best = f64::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                let v = x.get(n, c, y * 2 + dy, xx * 2 + dxx);
                                if v > best {
                                    best = v;
                                    best_idx = x.idx(n, c, y * 2 + dy, xx * 2 + dxx);
                                }
                            }
                        }
                        out.set(n, c, y, xx, best);
                        self.argmax[ai] = best_idx;
                        ai += 1;
                    }
                }
            }
        }
        out
    }

    /// Inference-only forward pass.
    pub fn infer(&self, x: &Tensor4) -> Tensor4 {
        let (oh, ow) = Self::out_size(x.h, x.w);
        let mut out = Tensor4::zeros(x.n, x.c, oh, ow);
        for n in 0..x.n {
            for c in 0..x.c {
                for y in 0..oh {
                    for xx in 0..ow {
                        let mut best = f64::NEG_INFINITY;
                        for dy in 0..2 {
                            for dxx in 0..2 {
                                best = best.max(x.get(n, c, y * 2 + dy, xx * 2 + dxx));
                            }
                        }
                        out.set(n, c, y, xx, best);
                    }
                }
            }
        }
        out
    }

    /// Backward pass: routes gradients to the argmax positions.
    ///
    /// # Panics
    ///
    /// Panics if called before [`MaxPool2::forward`].
    pub fn backward(&mut self, d_out: &Tensor4) -> Tensor4 {
        assert!(!self.argmax.is_empty(), "backward before forward");
        let (n, c, h, w) = self.in_shape;
        let mut dx = Tensor4::zeros(n, c, h, w);
        for (ai, &src) in self.argmax.iter().enumerate() {
            dx.data_mut()[src] += d_out.data()[ai];
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn loss(y: &Tensor4, target: &Tensor4) -> (f64, Tensor4) {
        let n = y.data().len() as f64;
        let mut l = 0.0;
        let mut g = Tensor4::zeros(y.n, y.c, y.h, y.w);
        for i in 0..y.data().len() {
            let d = y.data()[i] - target.data()[i];
            l += d * d;
            g.data_mut()[i] = 2.0 * d / n;
        }
        (l / n, g)
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ws = Scratch::new();
        let mut conv = Conv2d::new(1, 1, 3, &mut rng);
        // Zero all weights, set center tap to 1 => identity (ReLU on
        // non-negative input is also identity).
        conv.w.iter_mut().for_each(|v| *v = 0.0);
        let ci = conv.widx(0, 0, 1, 1);
        conv.w[ci] = 1.0;
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.infer(&x, &mut ws);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn gemm_forward_matches_reference_bitwise() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut ws = Scratch::new();
        let conv = Conv2d::new(3, 5, 3, &mut rng);
        let x = Tensor4::from_vec(
            2,
            3,
            6,
            8,
            (0..2 * 3 * 6 * 8)
                .map(|i| ((i * 31 % 23) as f64 - 11.0) / 7.0)
                .collect(),
        );
        let fast = conv.infer(&x, &mut ws);
        let slow = conv.infer_reference(&x);
        assert_eq!(fast.data(), slow.data(), "im2col forward must be bit-exact");
    }

    #[test]
    fn gemm_backward_matches_reference_bitwise() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut ws = Scratch::new();
        let mut conv = Conv2d::new(2, 4, 3, &mut rng);
        let x = Tensor4::from_vec(
            2,
            2,
            5,
            7,
            (0..2 * 2 * 5 * 7)
                .map(|i| ((i * 17 % 13) as f64 - 6.0) / 5.0)
                .collect(),
        );
        let y = conv.forward(&x, &mut ws);
        let (_, d_out) = loss(&y, &Tensor4::zeros(2, 4, 5, 7));
        let pre = conv.pre_act.clone().unwrap();
        let dx = conv.backward(&d_out, &mut ws);
        let (dx_ref, dw_ref, db_ref) = conv.backward_reference(&x, &pre, &d_out);
        assert_eq!(dx.data(), dx_ref.data(), "dx must be bit-exact");
        assert_eq!(conv.dw, dw_ref, "dw must be bit-exact");
        assert_eq!(conv.db, db_ref, "db must be bit-exact");
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ws = Scratch::new();
        let mut conv = Conv2d::new(2, 3, 3, &mut rng);
        let x = Tensor4::from_vec(
            2,
            2,
            4,
            4,
            (0..2 * 2 * 4 * 4)
                .map(|i| ((i * 37 % 17) as f64 - 8.0) / 8.0)
                .collect(),
        );
        let target = Tensor4::zeros(2, 3, 4, 4);
        let y = conv.forward(&x, &mut ws);
        let (_, d_out) = loss(&y, &target);
        let dx = conv.backward(&d_out, &mut ws);
        // Check a sample of weight gradients.
        let analytic_w = conv.dw.clone();
        let eps = 1e-6;
        for i in (0..conv.w.len()).step_by(7) {
            conv.w[i] += eps;
            let (l1, _) = loss(&conv.infer(&x, &mut ws), &target);
            conv.w[i] -= 2.0 * eps;
            let (l2, _) = loss(&conv.infer(&x, &mut ws), &target);
            conv.w[i] += eps;
            let num = (l1 - l2) / (2.0 * eps);
            assert!(
                (analytic_w[i] - num).abs() < 1e-7 + 1e-4 * num.abs(),
                "w[{i}]: {} vs {num}",
                analytic_w[i]
            );
        }
        // Check a sample of input gradients.
        let mut xp = x.clone();
        for i in (0..xp.data().len()).step_by(5) {
            xp.data_mut()[i] += eps;
            let (l1, _) = loss(&conv.infer(&xp, &mut ws), &target);
            xp.data_mut()[i] -= 2.0 * eps;
            let (l2, _) = loss(&conv.infer(&xp, &mut ws), &target);
            xp.data_mut()[i] += eps;
            let num = (l1 - l2) / (2.0 * eps);
            assert!(
                (dx.data()[i] - num).abs() < 1e-7 + 1e-4 * num.abs(),
                "x[{i}]: {} vs {num}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn maxpool_takes_maxima() {
        let x = Tensor4::from_vec(1, 1, 2, 4, vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, -1.0, 7.0]);
        let mut pool = MaxPool2::new();
        let y = pool.forward(&x);
        assert_eq!((y.h, y.w), (1, 2));
        assert_eq!(y.data(), &[5.0, 7.0]);
        assert_eq!(pool.infer(&x).data(), y.data());
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 9.0, 3.0, 4.0]);
        let mut pool = MaxPool2::new();
        let _ = pool.forward(&x);
        let d_out = Tensor4::from_vec(1, 1, 1, 1, vec![2.5]);
        let dx = pool.backward(&d_out);
        assert_eq!(dx.data(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn flatten_layout() {
        let t = Tensor4::from_vec(2, 1, 1, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = t.flatten();
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn macs_counts_scale() {
        let mut rng = SmallRng::seed_from_u64(1);
        let conv = Conv2d::new(3, 8, 3, &mut rng);
        assert_eq!(conv.macs(8, 6), 3 * 8 * 9 * 48);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = Conv2d::new(1, 1, 2, &mut rng);
    }
}
