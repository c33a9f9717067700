//! A small convolutional network — an extension model family beyond the
//! paper's two (the paper trains logistic regression and an MLP; image FL
//! users typically reach for a CNN next, and the [`Model`] abstraction
//! should demonstrably support one).
//!
//! Architecture (all valid-padding, stride 1):
//! `conv k×k (c1) → ReLU → maxpool 2×2 → conv k×k (c2) → ReLU →
//! maxpool 2×2 → flatten → linear(h) → ReLU → linear(classes)`.
//!
//! Implementation favours verifiability over speed: direct convolution
//! loops (no im2col) with a finite-difference gradcheck in the tests. For
//! the 16×16 inputs of this repository's experiments the cost is fine.

use crate::losses::{cross_entropy_backward_into, cross_entropy_from_logits};
use crate::model::Model;
use crate::workspace::Workspace;
use hm_data::{Dataset, StreamRng};
use hm_tensor::{ops, Matrix, MatrixView};

/// Small two-conv-block CNN with a one-hidden-layer MLP head.
#[derive(Debug, Clone)]
pub struct SimpleCnn {
    side: usize,
    k: usize,
    c1: usize,
    c2: usize,
    hidden: usize,
    classes: usize,
}

/// Spatial sizes at each stage.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Dims {
    conv1: usize,
    pool1: usize,
    conv2: usize,
    pool2: usize,
    flat: usize,
}

impl SimpleCnn {
    /// Build a CNN for single-channel `side × side` inputs.
    ///
    /// # Panics
    /// Panics when the spatial pipeline collapses to zero (input too small
    /// for the kernel/pooling) or any width is zero.
    pub fn new(side: usize, k: usize, c1: usize, c2: usize, hidden: usize, classes: usize) -> Self {
        assert!(k >= 1 && c1 >= 1 && c2 >= 1 && hidden >= 1 && classes >= 1);
        let me = Self {
            side,
            k,
            c1,
            c2,
            hidden,
            classes,
        };
        let d = me.dims();
        assert!(
            d.conv1 >= 1 && d.pool1 >= 1 && d.conv2 >= 1 && d.pool2 >= 1,
            "input {side}x{side} too small for kernel {k} with two pooled blocks"
        );
        me
    }

    fn dims(&self) -> Dims {
        let conv1 = self.side.saturating_sub(self.k - 1);
        let pool1 = conv1 / 2;
        let conv2 = pool1.saturating_sub(self.k - 1);
        let pool2 = conv2 / 2;
        Dims {
            conv1,
            pool1,
            conv2,
            pool2,
            flat: self.c2 * pool2 * pool2,
        }
    }

    /// Parameter block offsets:
    /// `[w1 (c1·k²), b1 (c1), w2 (c2·c1·k²), b2 (c2), fcw (h·flat),
    /// fcb (h), hw (classes·h), hb (classes)]`.
    fn layout(&self) -> [usize; 8] {
        let d = self.dims();
        let w1 = self.c1 * self.k * self.k;
        let w2 = self.c2 * self.c1 * self.k * self.k;
        let fcw = self.hidden * d.flat;
        let hw = self.classes * self.hidden;
        [w1, self.c1, w2, self.c2, fcw, self.hidden, hw, self.classes]
    }

    fn offsets(&self) -> [usize; 9] {
        let lens = self.layout();
        let mut off = [0usize; 9];
        for i in 0..8 {
            off[i + 1] = off[i] + lens[i];
        }
        off
    }

    /// Valid-padding correlation of a `ch_in`-channel square image stack
    /// with one output channel's kernels, plus bias.
    #[allow(clippy::too_many_arguments)]
    fn conv_forward(
        input: &[f32],
        side_in: usize,
        ch_in: usize,
        weights: &[f32],
        bias: f32,
        k: usize,
        side_out: usize,
        out: &mut [f32],
    ) {
        for oy in 0..side_out {
            for ox in 0..side_out {
                let mut acc = bias;
                for c in 0..ch_in {
                    let img = &input[c * side_in * side_in..];
                    let ker = &weights[c * k * k..];
                    for ky in 0..k {
                        let row = &img[(oy + ky) * side_in + ox..];
                        let krow = &ker[ky * k..];
                        for kx in 0..k {
                            acc += row[kx] * krow[kx];
                        }
                    }
                }
                out[oy * side_out + ox] = acc;
            }
        }
    }

    /// 2×2 max-pool of each channel, recording the argmax index per cell
    /// for the backward pass.
    fn pool_forward(
        input: &[f32],
        side_in: usize,
        channels: usize,
        side_out: usize,
        out: &mut [f32],
        argmax: &mut [usize],
    ) {
        for c in 0..channels {
            let img = &input[c * side_in * side_in..(c + 1) * side_in * side_in];
            for oy in 0..side_out {
                for ox in 0..side_out {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let i = (oy * 2 + dy) * side_in + ox * 2 + dx;
                            if img[i] > best {
                                best = img[i];
                                best_i = i;
                            }
                        }
                    }
                    let o = c * side_out * side_out + oy * side_out + ox;
                    out[o] = best;
                    argmax[o] = c * side_in * side_in + best_i;
                }
            }
        }
    }

    /// Size `cache`'s buffers for this model, reusing existing capacity.
    /// The forward pass overwrites every element, so stale contents from a
    /// previous batch (or model) cannot leak through.
    fn ensure_cache(&self, cache: &mut ConvCache) {
        let d = self.dims();
        cache.a1.resize(self.c1 * d.conv1 * d.conv1, 0.0);
        cache.p1.resize(self.c1 * d.pool1 * d.pool1, 0.0);
        cache.m1.resize(self.c1 * d.pool1 * d.pool1, 0);
        cache.a2.resize(self.c2 * d.conv2 * d.conv2, 0.0);
        cache.p2.resize(self.c2 * d.pool2 * d.pool2, 0.0);
        cache.m2.resize(self.c2 * d.pool2 * d.pool2, 0);
        cache.off = self.offsets();
        cache.d = d;
        cache.k = self.k;
    }

    /// Forward through the two conv blocks. `input` is one sample's
    /// `side × side` image, borrowed from the batch — the cache does not
    /// keep a copy; backward reads the same batch row again.
    fn run_conv_stack(&self, params: &[f32], input: &[f32], cache: &mut ConvCache) {
        let d = cache.d;
        let off = cache.off;
        // Block 1.
        for c in 0..self.c1 {
            let wslice = &params[off[0] + c * self.k * self.k..];
            let bias = params[off[1] + c];
            let out = &mut cache.a1[c * d.conv1 * d.conv1..(c + 1) * d.conv1 * d.conv1];
            Self::conv_forward(input, self.side, 1, wslice, bias, self.k, d.conv1, out);
        }
        for v in cache.a1.iter_mut() {
            *v = v.max(0.0);
        }
        {
            let (a1, p1, m1) = (&cache.a1, &mut cache.p1, &mut cache.m1);
            Self::pool_forward(a1, d.conv1, self.c1, d.pool1, p1, m1);
        }
        // Block 2.
        for c in 0..self.c2 {
            let wslice = &params[off[2] + c * self.c1 * self.k * self.k..];
            let bias = params[off[3] + c];
            let out = &mut cache.a2[c * d.conv2 * d.conv2..(c + 1) * d.conv2 * d.conv2];
            Self::conv_forward(
                &cache.p1, d.pool1, self.c1, wslice, bias, self.k, d.conv2, out,
            );
        }
        for v in cache.a2.iter_mut() {
            *v = v.max(0.0);
        }
        {
            let (a2, p2, m2) = (&cache.a2, &mut cache.p2, &mut cache.m2);
            Self::pool_forward(a2, d.conv2, self.c2, d.pool2, p2, m2);
        }
    }
}

/// Per-sample intermediates of the conv stack. Lives in the
/// [`Workspace`] so buffers survive across gradient calls; the input image
/// itself is not cached — it stays borrowed from the batch.
#[derive(Default)]
pub(crate) struct ConvCache {
    pub(crate) a1: Vec<f32>, // post-ReLU conv1 activations
    pub(crate) p1: Vec<f32>, // pooled block-1 output
    pub(crate) m1: Vec<usize>,
    pub(crate) a2: Vec<f32>,
    pub(crate) p2: Vec<f32>, // flat features
    pub(crate) m2: Vec<usize>,
    pub(crate) off: [usize; 9],
    pub(crate) d: Dims,
    pub(crate) k: usize,
}

impl Model for SimpleCnn {
    fn num_params(&self) -> usize {
        self.layout().iter().sum()
    }

    fn init_params(&self, rng: &mut StreamRng) -> Vec<f32> {
        let off = self.offsets();
        let d = self.dims();
        let mut p = vec![0.0_f32; self.num_params()];
        let mut he = |range: std::ops::Range<usize>, fan_in: usize| {
            let std = (2.0 / fan_in as f64).sqrt();
            for v in &mut p[range] {
                *v = rng.normal_with(0.0, std) as f32;
            }
        };
        he(off[0]..off[1], self.k * self.k);
        he(off[2]..off[3], self.c1 * self.k * self.k);
        he(off[4]..off[5], d.flat);
        he(off[6]..off[7], self.hidden);
        p
    }

    fn loss(&self, params: &[f32], batch: &Dataset) -> f64 {
        let logits = self.forward_batch(params, &batch.x);
        cross_entropy_from_logits(&logits, &batch.y)
    }

    fn loss_grad_ws(
        &self,
        params: &[f32],
        batch: &Dataset,
        grad: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(grad.len(), self.num_params(), "bad gradient length");
        grad.iter_mut().for_each(|g| *g = 0.0);
        let n = batch.len();
        let d = self.dims();
        let off = self.offsets();
        let Workspace {
            logits,
            delta,
            delta2,
            feats,
            hid,
            delta_feat,
            conv,
            da2,
            dp1,
            da1,
            ..
        } = ws;
        // Forward (keeping per-sample caches) then manual backward; batch
        // loops are plain — clarity over speed for this extension model.
        while conv.len() < n {
            conv.push(ConvCache::default());
        }
        feats.resize(n, d.flat);
        for (i, cache) in conv.iter_mut().enumerate().take(n) {
            self.ensure_cache(cache);
            self.run_conv_stack(params, batch.x.row(i), cache);
            feats.row_mut(i).copy_from_slice(&cache.p2);
        }
        // Head: feats → fc(ReLU) → logits, on the same forward kernel as
        // `forward_batch`. Weights are viewed in place from the flat
        // parameter slice.
        let fcw = MatrixView::new(self.hidden, d.flat, &params[off[4]..off[5]]);
        ops::matmul_transb_into(feats.view(), fcw, hid);
        ops::add_row_inplace(hid, &params[off[5]..off[6]]);
        ops::relu_inplace(hid);
        let hw = MatrixView::new(self.classes, self.hidden, &params[off[6]..off[7]]);
        ops::matmul_transb_into(hid.view(), hw, logits);
        ops::add_row_inplace(logits, &params[off[7]..off[8]]);
        let loss = cross_entropy_from_logits(logits, &batch.y);

        // Backward through the head (`delta` = ∂L/∂logits, `delta2` =
        // ∂L/∂hidden), staging parameter gradients straight into `grad`.
        cross_entropy_backward_into(logits, &batch.y, delta); // n × classes
        ops::matmul_transa_slice(delta.view(), hid.view(), &mut grad[off[6]..off[7]]);
        ops::col_sums_into(delta.view(), &mut grad[off[7]..off[8]]);
        ops::matmul_into(delta.view(), hw, delta2); // n × hidden
        ops::relu_backward_inplace(delta2, hid);
        ops::matmul_transa_slice(delta2.view(), feats.view(), &mut grad[off[4]..off[5]]);
        ops::col_sums_into(delta2.view(), &mut grad[off[5]..off[6]]);
        ops::matmul_into(delta2.view(), fcw, delta_feat); // n × flat

        // Backward through the conv stack, per sample.
        for (i, cache) in conv[..n].iter().enumerate() {
            let input = batch.x.row(i);
            let dfeat = delta_feat.row(i);
            // Unpool 2 (route gradient to argmax positions of conv2 act).
            da2.resize(self.c2 * d.conv2 * d.conv2, 0.0);
            da2.iter_mut().for_each(|v| *v = 0.0);
            for (o, &src) in cache.m2.iter().enumerate() {
                da2[src] += dfeat[o];
            }
            // ReLU 2 mask.
            for (g, &a) in da2.iter_mut().zip(&cache.a2) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
            // Conv2 gradients + gradient to p1.
            dp1.resize(self.c1 * d.pool1 * d.pool1, 0.0);
            dp1.iter_mut().for_each(|v| *v = 0.0);
            for c2i in 0..self.c2 {
                let dout = &da2[c2i * d.conv2 * d.conv2..(c2i + 1) * d.conv2 * d.conv2];
                let wbase = off[2] + c2i * self.c1 * cache.k * cache.k;
                for oy in 0..d.conv2 {
                    for ox in 0..d.conv2 {
                        let g = dout[oy * d.conv2 + ox];
                        if g == 0.0 {
                            continue;
                        }
                        grad[off[3] + c2i] += g;
                        for c1i in 0..self.c1 {
                            let img =
                                &cache.p1[c1i * d.pool1 * d.pool1..(c1i + 1) * d.pool1 * d.pool1];
                            let kbase = wbase + c1i * cache.k * cache.k;
                            for ky in 0..cache.k {
                                for kx in 0..cache.k {
                                    let ii = (oy + ky) * d.pool1 + ox + kx;
                                    grad[kbase + ky * cache.k + kx] += g * img[ii];
                                    dp1[c1i * d.pool1 * d.pool1 + ii] +=
                                        g * params[kbase + ky * cache.k + kx];
                                }
                            }
                        }
                    }
                }
            }
            // Unpool 1 + ReLU 1 mask.
            da1.resize(self.c1 * d.conv1 * d.conv1, 0.0);
            da1.iter_mut().for_each(|v| *v = 0.0);
            for (o, &src) in cache.m1.iter().enumerate() {
                da1[src] += dp1[o];
            }
            for (g, &a) in da1.iter_mut().zip(&cache.a1) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
            // Conv1 gradients (input has one channel).
            for c1i in 0..self.c1 {
                let dout = &da1[c1i * d.conv1 * d.conv1..(c1i + 1) * d.conv1 * d.conv1];
                let wbase = off[0] + c1i * cache.k * cache.k;
                for oy in 0..d.conv1 {
                    for ox in 0..d.conv1 {
                        let g = dout[oy * d.conv1 + ox];
                        if g == 0.0 {
                            continue;
                        }
                        grad[off[1] + c1i] += g;
                        for ky in 0..cache.k {
                            for kx in 0..cache.k {
                                let ii = (oy + ky) * self.side + ox + kx;
                                grad[wbase + ky * cache.k + kx] += g * input[ii];
                            }
                        }
                    }
                }
            }
        }
        loss
    }

    fn predict(&self, params: &[f32], x: &Matrix) -> Vec<usize> {
        let logits = self.forward_batch(params, x);
        ops::argmax_rows(&logits)
    }
}

impl SimpleCnn {
    /// Batched forward to logits (one conv cache reused across samples).
    fn forward_batch(&self, params: &[f32], x: &Matrix) -> Matrix {
        assert_eq!(params.len(), self.num_params(), "bad parameter length");
        assert_eq!(x.cols(), self.side * self.side, "input dim mismatch");
        let d = self.dims();
        let off = self.offsets();
        let n = x.rows();
        let mut cache = ConvCache::default();
        self.ensure_cache(&mut cache);
        let mut feats = Matrix::zeros(n, d.flat);
        for i in 0..n {
            self.run_conv_stack(params, x.row(i), &mut cache);
            feats.row_mut(i).copy_from_slice(&cache.p2);
        }
        let fcw = MatrixView::new(self.hidden, d.flat, &params[off[4]..off[5]]);
        let mut hid = Matrix::zeros(0, 0);
        ops::matmul_transb_into(feats.view(), fcw, &mut hid);
        ops::add_row_inplace(&mut hid, &params[off[5]..off[6]]);
        ops::relu_inplace(&mut hid);
        let hw = MatrixView::new(self.classes, self.hidden, &params[off[6]..off[7]]);
        let mut logits = Matrix::zeros(0, 0);
        ops::matmul_transb_into(hid.view(), hw, &mut logits);
        ops::add_row_inplace(&mut logits, &params[off[7]..off[8]]);
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use hm_data::rng::Purpose;

    fn toy_batch(side: usize, classes: usize, n: usize) -> Dataset {
        let x = Matrix::from_fn(n, side * side, |r, c| {
            ((r * 31 + c * 17) % 13) as f32 / 13.0 - 0.3
        });
        let y = (0..n).map(|i| i % classes).collect();
        Dataset::new(x, y, classes)
    }

    #[test]
    fn param_count_matches_layout() {
        let m = SimpleCnn::new(16, 3, 4, 8, 32, 10);
        // conv1: 4·9+4, conv2: 8·4·9+8, dims: 16→14→7→5→2, flat 8·4=32,
        // fc: 32·32+32, head: 10·32+10.
        let expect = 36 + 4 + 288 + 8 + 1024 + 32 + 320 + 10;
        assert_eq!(m.num_params(), expect);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_input_rejected() {
        let _ = SimpleCnn::new(5, 3, 2, 2, 4, 2);
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let m = SimpleCnn::new(12, 3, 3, 4, 16, 5);
        let mut rng = StreamRng::new(1, Purpose::Init, 0, 0);
        let p = m.init_params(&mut rng);
        let batch = toy_batch(12, 5, 3);
        let a = m.loss(&p, &batch);
        let b = m.loss(&p, &batch);
        assert!(a.is_finite() && a >= 0.0);
        assert_eq!(a, b);
        let preds = m.predict(&p, &batch.x);
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&c| c < 5));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = SimpleCnn::new(10, 3, 2, 3, 8, 3);
        let mut rng = StreamRng::new(2, Purpose::Init, 0, 0);
        let p = m.init_params(&mut rng);
        let batch = toy_batch(10, 3, 2);
        // ReLU + maxpool kinks: looser gate, many coordinates.
        let err = check_gradient(&m, &p, &batch, 60, 5);
        assert!(err < 3e-2, "gradcheck error {err}");
    }

    #[test]
    fn sgd_fits_toy_problem() {
        let m = SimpleCnn::new(10, 3, 2, 3, 16, 2);
        let batch = toy_batch(10, 2, 6);
        let mut rng = StreamRng::new(3, Purpose::Init, 0, 0);
        let mut p = m.init_params(&mut rng);
        let mut g = vec![0.0_f32; m.num_params()];
        let l0 = m.loss(&p, &batch);
        for _ in 0..300 {
            m.loss_grad(&p, &batch, &mut g);
            hm_tensor::vecops::axpy(-0.1, &g, &mut p);
        }
        let l1 = m.loss(&p, &batch);
        assert!(l1 < l0 * 0.5, "loss {l0} -> {l1}");
        assert!(m.accuracy(&p, &batch) >= 0.8);
    }

    #[test]
    fn trains_inside_the_federated_stack() {
        // End-to-end: a CNN problem through HierMinimax would need hm-core
        // (circular dev-dependency), so exercise the Model surface the
        // algorithms use: init → loss_grad → repeated batched calls.
        let m = SimpleCnn::new(10, 3, 2, 2, 8, 3);
        let mut rng = StreamRng::new(4, Purpose::Init, 0, 0);
        let p = m.init_params(&mut rng);
        let batch = toy_batch(10, 3, 4);
        let mut g1 = vec![0.0_f32; m.num_params()];
        let mut g2 = vec![0.0_f32; m.num_params()];
        m.loss_grad(&p, &batch, &mut g1);
        m.loss_grad(&p, &batch, &mut g2);
        assert_eq!(g1, g2, "gradient must be a pure function");
        assert!(g1.iter().any(|&x| x != 0.0));
    }
}
