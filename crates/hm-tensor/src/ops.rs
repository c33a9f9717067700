//! Matrix kernels: products (plain and transposed variants), row softmax,
//! log-sum-exp, ReLU forward/backward, argmax, and reductions.
//!
//! [`matmul_into`], [`matmul_transb_into`] and [`matmul_transa_slice`]
//! parallelise over output rows with rayon once the scalar work exceeds
//! [`PAR_THRESHOLD`] (and [`PAR_ROW_THRESHOLD`] per row); below that a
//! sequential loop is faster than the fork-join overhead. Per-element
//! accumulation order inside each output element is fixed, so results are
//! identical regardless of thread count.
//!
//! Every linear-layer forward (`X · Wᵀ` with row-major weights) runs on the
//! one register-blocked kernel [`matmul_transb_into`]; the backward pass
//! runs [`matmul_into`] (input gradient) and [`matmul_transa_slice`]
//! (weight gradient).

use crate::{Matrix, MatrixView};
use rayon::prelude::*;

/// Minimum number of scalar multiply-adds before a product goes parallel.
pub const PAR_THRESHOLD: usize = 64 * 1024;

/// Minimum multiply-adds *per row* before parallelising: with less work
/// per task, rayon's fork-join overhead dominates. Set when every fork
/// spawned fresh OS threads (~10–20 µs per dispatch on small batches, vs
/// ~1 µs of arithmetic); unmeasured since the rayon shim moved to a
/// persistent worker pool, which forks more cheaply.
pub const PAR_ROW_THRESHOLD: usize = 8 * 1024;

#[inline]
fn go_parallel(total_work: usize, rows: usize) -> bool {
    rows >= 4 && total_work >= PAR_THRESHOLD && total_work / rows >= PAR_ROW_THRESHOLD
}

/// `C = A · B` for `A (m×k)` and `B (k×n)`.
///
/// Assumes finite inputs: rows whose `A` coefficient is exactly `0.0` are
/// skipped (a sparsity fast path), which would also skip `0 · NaN = NaN`
/// propagation from `B`. The training pipeline never produces non-finite
/// values under its projected updates; callers with untrusted data should
/// validate first.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_into(a.view(), b.view(), &mut out);
    out
}

/// `C = A · B` written into `out` (resized, capacity reused). The borrowed
/// operands let callers multiply straight out of flat parameter buffers;
/// accumulation order matches [`matmul`] exactly.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dims {}x{} vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.cols();
    out.resize(m, n);
    out.fill(0.0);
    let work = m * k * n;
    let body = |(r, out_row): (usize, &mut [f32])| {
        let a_row = a.row(r);
        // ikj loop order: stream through B rows, accumulate into out_row.
        for (i, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(i);
            for (o, &bij) in out_row.iter_mut().zip(b_row) {
                *o += aik * bij;
            }
        }
    };
    if go_parallel(work, m) {
        out.as_mut_slice()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(body);
    } else if (ZERO_SCAN_MIN..=NZ_BUF).contains(&k) {
        // Sequential wide-shape path: compact each row's nonzero positions
        // branchlessly, then replay them unconditionally — same additions in
        // the same ascending-i order as the branchy loop (bit-identical),
        // but without a data-dependent branch per element. Training deltas
        // are resampled every step, so their zero pattern is fresh noise to
        // the branch predictor and a per-element skip branch mispredicts.
        let a_flat = a.as_slice();
        let b_flat = b.as_slice();
        let out_flat = out.as_mut_slice();
        let mut nz = [0u32; NZ_BUF];
        for r in 0..m {
            let a_row = &a_flat[r * k..(r + 1) * k];
            let out_row = &mut out_flat[r * n..(r + 1) * n];
            let mut cnt = 0usize;
            for (i, &aik) in a_row.iter().enumerate() {
                nz[cnt] = i as u32;
                cnt += (aik != 0.0) as usize;
            }
            for &i in &nz[..cnt] {
                let i = i as usize;
                let aik = a_row[i];
                for (o, &bij) in out_row.iter_mut().zip(&b_flat[i * n..(i + 1) * n]) {
                    *o += aik * bij;
                }
            }
        }
    } else {
        out.as_mut_slice().chunks_mut(n).enumerate().for_each(body);
    }
}

/// Capacity of the stack-allocated nonzero-index buffers used by the
/// branchless sparsity scans; shapes past it fall back to branchy skips.
const NZ_BUF: usize = 1024;

/// Shortest scanned dimension (`k` in [`matmul_into`], `m` in
/// [`matmul_transa_slice`]) at which the sequential backward kernels find
/// the nonzeros of `A` with a branchless scan. Narrower `A` are
/// logits-layer deltas: dense, so the branchy skip predicts perfectly and
/// a scan would be pure overhead.
const ZERO_SCAN_MIN: usize = 32;

/// `C = A · Bᵀ` for `A (m×k)` and `B (n×k)`.
///
/// This is the hot kernel in a forward pass (`X · Wᵀ` with row-major weight
/// matrices); both operands are traversed row-contiguously.
pub fn matmul_transb(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_transb_into(a.view(), b.view(), &mut out);
    out
}

/// `C = A · Bᵀ` written into `out` (resized, capacity reused). Every output
/// element is assigned, so no zeroing pass is needed; accumulation order
/// matches [`matmul_transb`] exactly.
///
/// Each output is a four-lane dot product: lane `l` sums the `k ≡ l (mod 4)`
/// products in ascending `k` (multiply, then add; never fused), the lanes
/// fold as `(l0 + l1) + (l2 + l3)`, and the `k % 4` tail products follow in
/// index order. A single such chain is bound by add latency, so outputs are
/// computed in register blocks (see `transb_rows`) that keep several
/// independent chains in flight. Blocks only share loads, so neither the
/// block shape nor the thread count changes a result. Exact zeros are
/// multiplied like any other entry (no skip), so the run time does not
/// depend on sparsity.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_transb_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_transb: inner dims {}x{} vs {}x{}ᵀ",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k) = a.shape();
    let n = b.rows();
    out.resize(m, n);
    let (a, b) = (a.as_slice(), b.as_slice());
    if go_parallel(m * k * n, m) {
        out.as_mut_slice()
            .par_chunks_mut(4 * n)
            .enumerate()
            .for_each(|(c, o)| transb_rows::<NativeLanes>(&a[4 * c * k..], b, k, n, o));
    } else {
        transb_rows::<NativeLanes>(a, b, k, n, out.as_mut_slice());
    }
}

/// Four `f32` accumulator lanes of the `A · Bᵀ` kernel.
trait Lanes: Copy {
    /// Whether [`transb_rows`] may run multi-output blocks on these lanes.
    const BLOCKED: bool;
    fn load(v: &[f32; 4]) -> Self;
    /// `self + a * b` lane-wise, rounded after the multiply and the add.
    fn add_mul(self, a: Self, b: Self) -> Self;
    /// `(l0 + l1) + (l2 + l3)`.
    fn sum(self) -> f32;
}

/// Portable lanes, run one output at a time. Blocks of several `[f32; 4]`
/// accumulators measured 0.57–0.98× of the single-output loop on x86-64:
/// LLVM's SLP pass turns them into shuffles. Explicit 128-bit registers
/// ([`Sse`]) are what make blocking pay.
impl Lanes for [f32; 4] {
    const BLOCKED: bool = false;
    fn load(v: &[f32; 4]) -> Self {
        *v
    }
    fn add_mul(self, a: Self, b: Self) -> Self {
        core::array::from_fn(|l| self[l] + a[l] * b[l])
    }
    fn sum(self) -> f32 {
        (self[0] + self[1]) + (self[2] + self[3])
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
use core::arch::x86_64 as x86;

/// SSE2 lanes: one 128-bit register per output. SSE2 is in the x86-64
/// baseline, so no runtime detection or build flag is needed. The compiler
/// still requires `unsafe` around the intrinsics, even with the feature on
/// for the whole build; the `cfg` makes the build prove that it is on.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[derive(Clone, Copy)]
struct Sse(x86::__m128);

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
impl Lanes for Sse {
    const BLOCKED: bool = true;
    fn load(v: &[f32; 4]) -> Self {
        // SAFETY: `v` borrows four initialised, contiguous `f32`s, the load
        // has no alignment requirement, and SSE is on (the `cfg` on `Sse`).
        Sse(unsafe { x86::_mm_loadu_ps(v.as_ptr()) })
    }
    fn add_mul(self, a: Self, b: Self) -> Self {
        // SAFETY: register-only arithmetic; SSE is on (the `cfg` on `Sse`).
        Sse(unsafe { x86::_mm_add_ps(self.0, x86::_mm_mul_ps(a.0, b.0)) })
    }
    fn sum(self) -> f32 {
        let v = self.0;
        // SAFETY: register-only arithmetic; SSE is on (the `cfg` on `Sse`).
        unsafe {
            // [l0, l1, l2, l3] + [l1, l0, l3, l2] = [l0 + l1, _, l2 + l3, _].
            let pairs = x86::_mm_add_ps(v, x86::_mm_shuffle_ps::<0b10_11_00_01>(v, v));
            x86::_mm_cvtss_f32(pairs) + x86::_mm_cvtss_f32(x86::_mm_movehl_ps(pairs, pairs))
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
type NativeLanes = Sse;
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
type NativeLanes = [f32; 4];

/// `out = A · Bᵀ` for the first `out.len() / n` rows of `a`, with `a` and
/// `b` row-major over `k` columns and `b` holding `n` rows. Blocked lanes
/// take 4 rows × 2 columns of outputs at a time (eight independent chains),
/// leftover rows 1 × 5 (this covers the batch-1 forward) and leftover
/// columns 1 × 1; unblocked lanes take every output 1 × 1.
fn transb_rows<L: Lanes>(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    let m = out.len().checked_div(n).unwrap_or(0);
    let mut r = 0;
    if L::BLOCKED {
        while r + 4 <= m {
            row_block::<L, 4, 2>(a, b, k, n, r, out);
            r += 4;
        }
        while r < m {
            row_block::<L, 1, 5>(a, b, k, n, r, out);
            r += 1;
        }
    }
    while r < m {
        row_block::<L, 1, 1>(a, b, k, n, r, out);
        r += 1;
    }
}

/// Rows `r..r + R` of `out`, `C` columns per block, then 1 × 1 for the
/// `n % C` columns left over.
#[inline(always)]
fn row_block<L: Lanes, const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    r: usize,
    out: &mut [f32],
) {
    let rows: [&[f32]; R] = core::array::from_fn(|i| &a[(r + i) * k..(r + i + 1) * k]);
    let b_row = |j: usize| &b[j * k..(j + 1) * k];
    let mut j = 0;
    while j + C <= n {
        let dots = dot_block::<L, R, C>(rows, core::array::from_fn(|q| b_row(j + q)));
        for (i, d) in dots.iter().enumerate() {
            out[(r + i) * n + j..][..C].copy_from_slice(d);
        }
        j += C;
    }
    for j in j..n {
        for (i, row) in rows.iter().enumerate() {
            out[(r + i) * n + j] = dot_block::<L, 1, 1>([row], [b_row(j)])[0][0];
        }
    }
}

/// The `R × C` dot products of `a`'s rows with `b`'s rows (all of one
/// length), each in its own accumulator.
#[inline(always)]
fn dot_block<L: Lanes, const R: usize, const C: usize>(
    a: [&[f32]; R],
    b: [&[f32]; C],
) -> [[f32; C]; R] {
    let chunks = a[0].len() / 4;
    // Slicing every row to the same `chunks` lets the loop drop its bounds checks.
    let a4 = a.map(|row| &row.as_chunks::<4>().0[..chunks]);
    let b4 = b.map(|row| &row.as_chunks::<4>().0[..chunks]);
    let mut acc = [[L::load(&[0.0; 4]); C]; R];
    for c in 0..chunks {
        let av: [L; R] = core::array::from_fn(|i| L::load(&a4[i][c]));
        let bv: [L; C] = core::array::from_fn(|q| L::load(&b4[q][c]));
        for (acc_i, &ai) in acc.iter_mut().zip(&av) {
            for (o, &bq) in acc_i.iter_mut().zip(&bv) {
                *o = o.add_mul(ai, bq);
            }
        }
    }
    core::array::from_fn(|i| {
        core::array::from_fn(|q| {
            let mut s = acc[i][q].sum();
            for (x, y) in a[i][chunks * 4..].iter().zip(&b[q][chunks * 4..]) {
                s += x * y;
            }
            s
        })
    })
}

/// `C = A · Bᵀ`: forwards to [`matmul_transb_into`]. Both scratch
/// arguments are unused. This exists only for the benchmark's kernel
/// probe, which calls it by this name; it is deleted in the next change to
/// the benchmark.
pub fn matmul_transb_fwd_into(
    a: MatrixView,
    b: MatrixView,
    _wt: &mut Matrix,
    _lanes: &mut Matrix,
    out: &mut Matrix,
) {
    matmul_transb_into(a, b, out);
}

/// `C = Aᵀ · B` for `A (k×m)` and `B (k×n)`.
///
/// This is the weight-gradient kernel (`Xᵀ · Δ` in backprop).
pub fn matmul_transa(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    matmul_transa_into(a.view(), b.view(), &mut out);
    out
}

/// `C = Aᵀ · B` written into `out` (resized, capacity reused), letting the
/// backward pass stage weight gradients without allocating; accumulation
/// order matches [`matmul_transa`] exactly.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul_transa_into(a: MatrixView, b: MatrixView, out: &mut Matrix) {
    out.resize(a.cols(), b.cols());
    matmul_transa_slice(a, b, out.as_mut_slice());
}

/// `C = Aᵀ · B` written into the flat row-major slice `out` — the backward
/// pass stages weight gradients straight into the caller's gradient vector
/// (`&mut grad[wo..wo + wl]`) with no intermediate matrix.
///
/// # Panics
/// Panics on inner-dimension mismatch or when `out.len() != a.cols() * b.cols()`.
pub fn matmul_transa_slice(a: MatrixView, b: MatrixView, out: &mut [f32]) {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_transa: inner dims {}x{}ᵀ vs {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let k = a.rows();
    let m = a.cols();
    let n = b.cols();
    assert_eq!(out.len(), m * n, "matmul_transa: output length mismatch");
    out.iter_mut().for_each(|x| *x = 0.0);
    let work = m * k * n;
    let body = |(r, out_row): (usize, &mut [f32])| {
        // out[r, :] = sum_i A[i, r] * B[i, :]
        for i in 0..k {
            let air = a.at(i, r);
            if air == 0.0 {
                continue;
            }
            let b_row = b.row(i);
            for (o, &bij) in out_row.iter_mut().zip(b_row) {
                *o += air * bij;
            }
        }
    };
    if go_parallel(work, m) {
        out.par_chunks_mut(n).enumerate().for_each(body);
    } else if (ZERO_SCAN_MIN..=NZ_BUF).contains(&m) {
        // Sequential wide-shape path with the batch dimension outermost:
        // each `A` row (a training delta) is scanned for nonzeros once,
        // branchlessly, instead of being probed once per output row. Every
        // output element still receives its addends in ascending batch-row
        // order, so the result is bit-identical to the branchy loop.
        let a_flat = a.as_slice();
        let b_flat = b.as_slice();
        let mut nz = [0u32; NZ_BUF];
        for i in 0..k {
            let a_row = &a_flat[i * m..(i + 1) * m];
            let b_row = &b_flat[i * n..(i + 1) * n];
            let mut cnt = 0usize;
            for (r, &air) in a_row.iter().enumerate() {
                nz[cnt] = r as u32;
                cnt += (air != 0.0) as usize;
            }
            for &r in &nz[..cnt] {
                let r = r as usize;
                let air = a_row[r];
                let out_row = &mut out[r * n..(r + 1) * n];
                for (o, &bij) in out_row.iter_mut().zip(b_row) {
                    *o += air * bij;
                }
            }
        }
    } else {
        out.chunks_mut(n).enumerate().for_each(body);
    }
}

/// Reference O(mkn) triple-loop product used as the test oracle.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for r in 0..a.rows() {
        for c in 0..b.cols() {
            let mut acc = 0.0_f64;
            for i in 0..a.cols() {
                acc += f64::from(a[(r, i)]) * f64::from(b[(i, c)]);
            }
            out[(r, c)] = acc as f32;
        }
    }
    out
}

/// Add a row vector (bias) to every row of `m` in place.
pub fn add_row_inplace(m: &mut Matrix, row: &[f32]) {
    assert_eq!(m.cols(), row.len(), "bias length mismatch");
    let cols = m.cols();
    for r in m.as_mut_slice().chunks_mut(cols) {
        for (x, &b) in r.iter_mut().zip(row) {
            *x += b;
        }
    }
}

/// Column sums of `m`, accumulated in f64 (gradient of a broadcast bias).
pub fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0_f32; m.cols()];
    col_sums_into(m.view(), &mut out);
    out
}

/// Column sums of `m` written into `out`, accumulated in f64. Each column
/// sums its rows top-to-bottom — the same per-column addition order as
/// [`col_sums`], so results are bit-identical.
///
/// # Panics
/// Panics when `out.len() != m.cols()`.
pub fn col_sums_into(m: MatrixView, out: &mut [f32]) {
    assert_eq!(out.len(), m.cols(), "col_sums: output length mismatch");
    let data = m.as_slice();
    let cols = m.cols();
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0_f64;
        let mut i = c;
        while i < data.len() {
            acc += f64::from(data[i]);
            i += cols;
        }
        *o = acc as f32;
    }
}

/// In-place ReLU.
pub fn relu_inplace(m: &mut Matrix) {
    m.map_inplace(|x| x.max(0.0));
}

/// Backward of ReLU: zero `grad` wherever the forward *output* was zero.
///
/// `activated` must be the ReLU output (not the pre-activation); the kernel
/// therefore treats `activated > 0` as the pass-through mask.
pub fn relu_backward_inplace(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!(grad.shape(), activated.shape());
    // Unconditional select rather than a guarded store: the mask is fresh
    // ~50/50 noise every training batch, and a data-dependent branch here
    // mispredicts constantly; the select vectorises to cmp+and.
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        *g = if a > 0.0 { *g } else { 0.0 };
    }
}

/// Numerically stable log-sum-exp of a slice.
pub fn log_sum_exp(x: &[f32]) -> f32 {
    let m = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !m.is_finite() {
        return m;
    }
    let s: f64 = x.iter().map(|&v| f64::from(v - m).exp()).sum();
    m + (s.ln() as f32)
}

/// Row-wise softmax, numerically stable, returned as a new matrix.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// Row-wise softmax in place.
pub fn softmax_rows_inplace(m: &mut Matrix) {
    let cols = m.cols();
    for row in m.as_mut_slice().chunks_mut(cols) {
        let mx = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0_f64;
        for x in row.iter_mut() {
            let e = f64::from(*x - mx).exp();
            sum += e;
            *x = e as f32;
        }
        let inv = (1.0 / sum) as f32;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// Index of the maximum element of each row (ties resolve to the first).
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    m.rows_iter()
        .map(|row| {
            let mut best = 0;
            let mut best_v = f32::NEG_INFINITY;
            for (i, &v) in row.iter().enumerate() {
                if v > best_v {
                    best_v = v;
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Frobenius norm with f64 accumulation.
pub fn frobenius_norm(m: &Matrix) -> f64 {
    m.as_slice()
        .iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Small deterministic pseudo-random fill without external RNG deps.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = mat(5, 7, 1);
        let b = mat(7, 4, 2);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-4, "diff {}", c.max_abs_diff(&r));
    }

    /// Per-element scalar reference for `matmul_transb_into`: four lanes over
    /// `k ≡ l (mod 4)` in ascending `k`, folded `(l0 + l1) + (l2 + l3)`, then
    /// the `k % 4` tail in index order.
    fn ref_dot(a: &[f32], b: &[f32]) -> f32 {
        let chunks = a.len() / 4;
        let mut lanes = [0.0_f32; 4];
        for i in 0..chunks * 4 {
            lanes[i % 4] += a[i] * b[i];
        }
        let mut acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for i in chunks * 4..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// Equal bits, or both NaN (NaN payloads are not part of the contract).
    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            assert!(same, "{what}: element {i} is {x:e}, want {y:e}");
        }
    }

    /// `mat` with `±0.0`, subnormals and, when `infs` is set, `±inf` mixed in.
    fn special_mat(rows: usize, cols: usize, seed: u64, infs: bool) -> Matrix {
        let mut m = mat(rows, cols, seed);
        let mut s = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(5);
        for v in m.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *v = match s % 64 {
                0..=3 => 0.0,
                4..=5 => -0.0,
                6..=7 => f32::MIN_POSITIVE / 3.0,
                8 => -1e-40,
                9 if infs => f32::INFINITY,
                10 if infs => f32::NEG_INFINITY,
                _ => *v,
            };
        }
        m
    }

    /// `mat` with about `pct` % of entries exactly zero, a quarter of those
    /// `-0.0`: the fig4 forward's inputs (≈ 30 % zero pixels) and hidden
    /// activations (≈ 55 % zero after ReLU).
    fn sparse_mat(rows: usize, cols: usize, seed: u64, pct: u64) -> Matrix {
        let mut m = mat(rows, cols, seed);
        let mut s = seed.wrapping_mul(0xD1B54A32D192ED03).wrapping_add(7);
        for v in m.as_mut_slice() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < pct {
                *v = if s >> 62 == 0 { -0.0 } else { 0.0 };
            }
        }
        m
    }

    /// Operand pairs for one `m × k · (n × k)ᵀ` shape: dense, special
    /// values without and with infinities, a scaled `A` whose products
    /// and sums are subnormal, and `A` with 30 % and 55 % zeros.
    fn transb_operands(m: usize, k: usize, n: usize, seed: u64) -> Vec<(Matrix, Matrix)> {
        let tiny = mat(m, k, seed + 3).map(|x| x * 1e-38);
        vec![
            (mat(m, k, seed), mat(n, k, seed + 1)),
            (
                special_mat(m, k, seed, false),
                special_mat(n, k, seed + 1, false),
            ),
            (
                special_mat(m, k, seed + 2, true),
                special_mat(n, k, seed + 3, true),
            ),
            (tiny, mat(n, k, seed + 4)),
            (sparse_mat(m, k, seed + 5, 30), mat(n, k, seed + 6)),
            (sparse_mat(m, k, seed + 7, 55), mat(n, k, seed + 8)),
        ]
    }

    /// Number of [`wide_shape`]s.
    const WIDE_SHAPES: usize = 36;

    /// The fig4 forward shapes `(m, k, n)` (batch rows, fan-in, fan-out)
    /// for `i < WIDE_SHAPES`: m ∈ {1, 4, 8, 16}, k ∈ {50, 100, 256},
    /// n ∈ {32, 50, 100}.
    fn wide_shape(i: usize) -> (usize, usize, usize) {
        (
            [1, 4, 8, 16][i % 4],
            [50, 100, 256][i / 4 % 3],
            [32, 50, 100][i / 12],
        )
    }

    #[test]
    fn transb_bit_identical_to_scalar_reference() {
        let mut out = Matrix::zeros(0, 0);
        let narrow = (0..=11)
            .chain([255, 256, 257])
            .flat_map(|k| (0..=9).flat_map(move |m| (0..=13).map(move |n| (m, k, n))));
        for (m, k, n) in narrow.chain((0..WIDE_SHAPES).map(wide_shape)) {
            for (a, b) in transb_operands(m, k, n, (m * 131 + n * 17 + k) as u64) {
                let want = Matrix::from_fn(m, n, |r, j| ref_dot(a.row(r), b.row(j)));
                matmul_transb_into(a.view(), b.view(), &mut out);
                assert_eq!(out.shape(), (m, n));
                assert_same_bits(out.as_slice(), want.as_slice(), &format!("{m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn transb_parallel_branch_matches_sequential() {
        // Nine rows: two 4-row parallel chunks plus a 1-row chunk.
        let (m, k, n) = (9usize, 1025usize, 13usize);
        assert!(go_parallel(m * k * n, m));
        for (a, b) in transb_operands(m, k, n, 41) {
            let mut par = Matrix::zeros(0, 0);
            matmul_transb_into(a.view(), b.view(), &mut par);
            let mut seq = vec![0.0; m * n];
            transb_rows::<NativeLanes>(a.as_slice(), b.as_slice(), k, n, &mut seq);
            assert_same_bits(par.as_slice(), &seq, "parallel vs sequential");
        }
    }

    /// Non-x86-64 targets run the portable lanes; pin them to the SSE lanes
    /// so the x86-64 suite covers that code path too.
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn portable_lanes_match_sse_lanes() {
        for (m, k, n) in [
            (9usize, 257usize, 13usize),
            (5, 11, 7),
            (4, 256, 10),
            (1, 50, 10),
        ] {
            for (a, b) in transb_operands(m, k, n, 53) {
                let (a, b) = (a.as_slice(), b.as_slice());
                let mut portable = vec![0.0; m * n];
                let mut sse = vec![0.0; m * n];
                transb_rows::<[f32; 4]>(a, b, k, n, &mut portable);
                transb_rows::<Sse>(a, b, k, n, &mut sse);
                assert_same_bits(&portable, &sse, &format!("{m}x{k}x{n}"));
            }
        }
    }

    #[test]
    fn matmul_matches_naive_parallel_path() {
        // Large enough to take the rayon path: total work and per-row work
        // both above their thresholds, with ≥ 4 rows.
        let (m, k, n) = (8usize, 512usize, 512usize);
        assert!(go_parallel(m * k * n, m));
        let a = mat(m, k, 3);
        let b = mat(k, n, 4);
        let c = matmul(&a, &b);
        let r = matmul_naive(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-3);
    }

    #[test]
    fn parallel_heuristic_shape() {
        // Tiny matrices and few-row matrices stay sequential.
        assert!(!go_parallel(100, 10));
        assert!(!go_parallel(1 << 20, 2)); // too few rows
        assert!(!go_parallel(1 << 17, 64)); // too little work per row
        assert!(go_parallel(1 << 20, 8));
    }

    #[test]
    fn transb_equals_explicit_transpose() {
        let a = mat(6, 5, 5);
        let b = mat(3, 5, 6);
        let c = matmul_transb(&a, &b);
        let r = matmul(&a, &b.transpose());
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn transa_equals_explicit_transpose() {
        let a = mat(5, 6, 7);
        let b = mat(5, 3, 8);
        let c = matmul_transa(&a, &b);
        let r = matmul(&a.transpose(), &b);
        assert!(c.max_abs_diff(&r) < 1e-4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = mat(4, 4, 9);
        let c = matmul(&a, &Matrix::eye(4));
        assert!(c.max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul")]
    fn mismatched_dims_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn add_row_and_col_sums() {
        let mut m = Matrix::zeros(3, 2);
        add_row_inplace(&mut m, &[1.0, -2.0]);
        assert_eq!(m.row(2), &[1.0, -2.0]);
        let s = col_sums(&m);
        assert_eq!(s, vec![3.0, -6.0]);
    }

    #[test]
    fn relu_and_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::full(1, 4, 1.0);
        relu_backward_inplace(&mut g, &m);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let m = mat(4, 6, 11);
        let s = softmax_rows(&m);
        for row in s.rows_iter() {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]);
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|x| x.is_finite()));
        let m2 = Matrix::from_vec(1, 3, vec![0.0, 1.0, 2.0]);
        let s2 = softmax_rows(&m2);
        assert!(s.max_abs_diff(&s2) < 1e-5);
    }

    #[test]
    fn log_sum_exp_stable_and_correct() {
        assert!((log_sum_exp(&[0.0, 0.0]) - std::f32::consts::LN_2).abs() < 1e-6);
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + std::f32::consts::LN_2)).abs() < 1e-3);
        assert_eq!(log_sum_exp(&[f32::NEG_INFINITY]), f32::NEG_INFINITY);
    }

    #[test]
    fn argmax_rows_first_tie_wins() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, -1.0, -5.0, -2.0]);
        assert_eq!(argmax_rows(&m), vec![1, 0]);
    }

    #[test]
    fn frobenius_norm_simple() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((frobenius_norm(&m) - 5.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_matmul_matches_naive(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(17));
            let c = matmul(&a, &b);
            let r = matmul_naive(&a, &b);
            prop_assert!(c.max_abs_diff(&r) < 1e-4);
        }

        #[test]
        fn prop_transposed_products_consistent(m in 1usize..7, k in 1usize..7, n in 1usize..7, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let bt = mat(n, k, seed.wrapping_add(3));
            let c1 = matmul_transb(&a, &bt);
            let c2 = matmul(&a, &bt.transpose());
            prop_assert!(c1.max_abs_diff(&c2) < 1e-4);

            let at = mat(k, m, seed.wrapping_add(5));
            let b = mat(k, n, seed.wrapping_add(7));
            let c3 = matmul_transa(&at, &b);
            let c4 = matmul(&at.transpose(), &b);
            prop_assert!(c3.max_abs_diff(&c4) < 1e-4);
        }

        #[test]
        fn prop_transb_bit_identical_to_scalar_reference(
            m in 0usize..20, k in 0usize..70, n in 0usize..20, seed in 0u64..1000,
            wide in 0usize..WIDE_SHAPES,
        ) {
            let mut out = Matrix::zeros(0, 0);
            for (m, k, n) in [(m, k, n), wide_shape(wide)] {
                for (a, b) in transb_operands(m, k, n, seed) {
                    matmul_transb_into(a.view(), b.view(), &mut out);
                    for r in 0..m {
                        for j in 0..n {
                            let (x, y) = (out[(r, j)], ref_dot(a.row(r), b.row(j)));
                            prop_assert!(
                                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                "({}, {}) of {}x{}x{}: {:e} vs {:e}", r, j, m, k, n, x, y
                            );
                        }
                    }
                }
            }
        }

        #[test]
        fn prop_softmax_rows_sum_to_one(r in 1usize..6, c in 1usize..6, seed in 0u64..1000) {
            let m = mat(r, c, seed);
            let s = softmax_rows(&m);
            for row in s.rows_iter() {
                let sum: f32 = row.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }
}
