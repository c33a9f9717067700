//! Direct timed calls into `hm-tensor` and `hm-checkpoint` at a
//! workload's own shapes, plus the in-process calibration loop.
//!
//! Each measurement repeats a unit of work in chunks of at least
//! [`CHUNK`] and reports the median chunk rate over its time budget.

use crate::flops;
use crate::stats::median;
use hm_checkpoint::{read_snapshot, write_snapshot, Snapshot};
use hm_tensor::{ops, Aggregator, Matrix, MatrixView};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shortest timed chunk.
const CHUNK: Duration = Duration::from_millis(20);

/// Median rate (`work` units per second) of `f` over `budget`, where one
/// call of `f` does `work` units.
fn rate(budget: Duration, work: f64, mut f: impl FnMut()) -> f64 {
    f(); // first call sizes buffers
    let mut rates = Vec::new();
    let t_end = Instant::now() + budget;
    while rates.len() < 3 || Instant::now() < t_end {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < CHUNK {
            f();
            calls += 1;
        }
        rates.push(calls as f64 * work / t0.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// Calibration: GFLOP/s of a fixed scalar multiply-add loop that uses
/// nothing from the repo, so results from different machines can be
/// put on one scale.
pub fn calib_gflops(budget: Duration) -> f64 {
    const LANES: usize = 32;
    const ITERS: usize = 4096;
    rate(budget, (2 * LANES * ITERS) as f64 * 1e-9, || {
        let mut acc = [1.0_f32; LANES];
        let (x, y) = (black_box(0.999_9_f32), black_box(1e-4_f32));
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * x + y;
            }
        }
        black_box(acc);
    })
}

/// Deterministic weight-like values in `[-scale, scale)`.
fn pseudo(len: usize, salt: u64, scale: f32) -> Vec<f32> {
    let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0) * scale
        })
        .collect()
}

/// GFLOP/s of the `hm-tensor` kernels one `loss_grad_ws` step runs at
/// `widths` on the `rows × widths[0]` input `x` (real training rows, so
/// the forward kernel's zero skipping sees real sparsity): per layer the
/// shape-dispatched forward product, then the weight-gradient product
/// and, above the first layer, the input-gradient product.
pub fn matmul_step_gflops(widths: &[usize], x: &Matrix, budget: Duration) -> f64 {
    let layers = widths.len() - 1;
    let weights: Vec<Vec<f32>> = (0..layers)
        .map(|l| {
            let scale = (6.0 / widths[l] as f32).sqrt();
            pseudo(widths[l] * widths[l + 1], l as u64 + 1, scale)
        })
        .collect();
    let mut acts: Vec<Matrix> = (0..layers).map(|_| Matrix::zeros(0, 0)).collect();
    let (mut wt, mut lanes) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let (mut delta, mut delta2) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut grads: Vec<Vec<f32>> = weights.iter().map(|w| vec![0.0; w.len()]).collect();
    let gflop = flops::loss_grad_flops(widths, x.rows()) as f64 * 1e-9;
    rate(budget, gflop, || {
        for l in 0..layers {
            let w = MatrixView::new(widths[l + 1], widths[l], &weights[l]);
            let (prev, rest) = acts.split_at_mut(l);
            let input = if l == 0 { x.view() } else { prev[l - 1].view() };
            ops::matmul_transb_fwd_into(input, w, &mut wt, &mut lanes, &mut rest[0]);
            if l + 1 < layers {
                ops::relu_inplace(&mut rest[0]);
            }
        }
        delta.clone_from(&acts[layers - 1]);
        for l in (0..layers).rev() {
            let input = if l == 0 { x.view() } else { acts[l - 1].view() };
            ops::matmul_transa_slice(delta.view(), input, &mut grads[l]);
            if l > 0 {
                let w = MatrixView::new(widths[l + 1], widths[l], &weights[l]);
                ops::matmul_into(delta.view(), w, &mut delta2);
                ops::relu_backward_inplace(&mut delta2, &acts[l - 1]);
                std::mem::swap(&mut delta, &mut delta2);
            }
        }
        black_box(&grads);
    })
}

/// GFLOP/s of `hm-tensor`'s faster dense kernel on a 256³ product with
/// no zero entries: the better of `matmul_into` and the pre-transposed
/// forward kernel, the library's own ceiling on this machine.
pub fn peak_gflops(budget: Duration) -> f64 {
    const N: usize = 256;
    let a = Matrix::from_vec(N, N, pseudo(N * N, 11, 1.0));
    let b = Matrix::from_vec(N, N, pseudo(N * N, 12, 1.0));
    let gflop = (2 * N * N * N) as f64 * 1e-9;
    let (mut wt, mut lanes, mut out) = (
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
        Matrix::zeros(0, 0),
    );
    let plain = rate(budget / 2, gflop, || {
        ops::matmul_into(a.view(), b.view(), &mut out);
        black_box(&out);
    });
    let pret = rate(budget / 2, gflop, || {
        ops::matmul_transb_fwd_into(a.view(), b.view(), &mut wt, &mut lanes, &mut out);
        black_box(&out);
    });
    plain.max(pret)
}

/// GB/s of `agg` reducing `survivors` uploads of length `d` (bytes read
/// plus bytes written).
pub fn aggregate_gbps(agg: Aggregator, survivors: usize, d: usize, budget: Duration) -> f64 {
    let uploads: Vec<Vec<f32>> = (0..survivors)
        .map(|i| pseudo(d, 100 + i as u64, 1.0))
        .collect();
    let base = vec![0.0_f32; d];
    let mut scratch = Vec::new();
    let mut out = vec![0.0_f32; d];
    let gb = ((survivors + 1) * d * 4) as f64 * 1e-9;
    rate(budget, gb, || {
        agg.aggregate_present_into(
            &uploads,
            |u| Some(u.as_slice()),
            Some(&base),
            &mut scratch,
            &mut out,
        );
        black_box(&out);
    })
}

/// Median milliseconds to write and to read `snap` at `path`, over
/// `reps` repetitions each.
pub fn snapshot_io_ms(snap: &Snapshot, path: &Path, reps: usize) -> std::io::Result<(f64, f64)> {
    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        write_snapshot(path, snap).map_err(std::io::Error::other)?;
        writes.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let back = read_snapshot(path).map_err(std::io::Error::other)?;
        reads.push(t0.elapsed().as_secs_f64() * 1e3);
        if back.w.len() != snap.w.len() {
            return Err(std::io::Error::other(
                "snapshot read back with a different model",
            ));
        }
    }
    Ok((median(&writes), median(&reads)))
}
