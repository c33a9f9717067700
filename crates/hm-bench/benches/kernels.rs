//! Microbenchmarks of the numerical kernels that dominate training time:
//! matrix products (the forward/backward pass), softmax, the simplex
//! projection (every eq.-7 update), and the aggregation primitives
//! (every client-edge and edge-cloud sync).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hm_data::rng::{Purpose, StreamRng};
use hm_optim::projection::project_simplex;
use hm_tensor::{ops, vecops, Matrix};
use std::hint::black_box;

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StreamRng::new(seed, Purpose::Misc, 0, 0);
    Matrix::from_fn(rows, cols, |_, _| rng.uniform() as f32 - 0.5)
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul_transb");
    // Logits-layer shapes the workloads run: the fig3 batch-1 local step
    // (1 × 256 · 10×256ᵀ), a Phase-2 loss estimate (16 × 256), one edge's
    // eval set (500 × 256) and the fig4 MLP head (16 × 50 · 10×50ᵀ).
    for &(m, k, n) in &[
        (1usize, 256usize, 10usize),
        (16, 256, 10),
        (500, 256, 10),
        (16, 50, 10),
    ] {
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(n, k, 2);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(a, b),
            |bench, (a, b)| bench.iter(|| ops::matmul_transb(black_box(a), black_box(b))),
        );
    }
    g.finish();
}

fn bench_workspace_kernels(c: &mut Criterion) {
    // The `_into` variants against the allocating wrappers benchmarked
    // above: same shapes, caller-owned output reused across iterations —
    // the hot-path pattern of the workspace-based forward/backward.
    let mut g = c.benchmark_group("matmul_transb_into");
    for &(m, k, n) in &[
        (1usize, 256usize, 10usize),
        (16, 256, 10),
        (500, 256, 10),
        (16, 50, 10),
    ] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(n, k, 6);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{k}x{n}")),
            &(a, b),
            |bench, (a, b)| {
                let mut out = Matrix::zeros(m, n);
                bench.iter(|| {
                    ops::matmul_transb_into(black_box(a).view(), black_box(b).view(), &mut out)
                })
            },
        );
    }
    g.finish();

    // fig4's wide forward layers (256→100 on input pixels, 100→50 on the
    // first hidden layer) at its batch sizes, with `A` dense and at 30 %
    // and 55 % exact zeros (fig4's inputs are ≈ 30 % zero, its ReLU'd
    // hidden units 36–47 %). The kernel skips no zeros, so the three
    // should time alike.
    let mut g = c.benchmark_group("matmul_transb_into_wide");
    for &(m, k, n) in &[
        (8usize, 256usize, 100usize),
        (16, 256, 100),
        (8, 100, 50),
        (16, 100, 50),
    ] {
        for zeros_pct in [0usize, 30, 55] {
            let mut a = rand_matrix(m, k, 8);
            for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                if (i * 37) % 100 < zeros_pct {
                    *v = 0.0;
                }
            }
            let b = rand_matrix(n, k, 9);
            g.throughput(Throughput::Elements((m * k * n) as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("zeros{zeros_pct}"), format!("{m}x{k}x{n}")),
                &(a, b),
                |bench, (a, b)| {
                    let mut out = Matrix::zeros(m, n);
                    bench.iter(|| {
                        ops::matmul_transb_into(black_box(a).view(), black_box(b).view(), &mut out)
                    })
                },
            );
        }
    }
    g.finish();

    // Mini-batch row gather into a reused buffer (one per SGD step).
    let mut g = c.benchmark_group("select_rows_into");
    let data = rand_matrix(1024, 256, 7);
    for &b in &[8usize, 64] {
        let idx: Vec<usize> = (0..b).map(|i| (i * 37) % 1024).collect();
        g.throughput(Throughput::Elements((b * 256) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(b), &idx, |bench, idx| {
            let mut out = Matrix::zeros(0, 0);
            bench.iter(|| data.select_rows_into(black_box(idx), &mut out))
        });
    }
    g.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut g = c.benchmark_group("softmax_rows");
    for &rows in &[8usize, 64, 512] {
        let m = rand_matrix(rows, 10, 3);
        g.throughput(Throughput::Elements((rows * 10) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(rows), &m, |bench, m| {
            bench.iter(|| ops::softmax_rows(black_box(m)))
        });
    }
    g.finish();
}

fn bench_simplex_projection(c: &mut Criterion) {
    let mut g = c.benchmark_group("project_simplex");
    // n = 10 (the paper's N_E), 100 (the Synthetic scenario), 1000.
    for &n in &[10usize, 100, 1000] {
        let mut rng = StreamRng::new(4, Purpose::Misc, 0, 0);
        let x: Vec<f32> = (0..n).map(|_| rng.normal() as f32).collect();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &x, |bench, x| {
            bench.iter(|| {
                let mut y = x.clone();
                project_simplex(black_box(&mut y));
                y
            })
        });
    }
    g.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let mut g = c.benchmark_group("average_into");
    // d = 2570 (logistic on 16×16, 10 classes) and 31k (default fig-4 MLP),
    // averaged over N_0 = 3 sources (one client-edge aggregation).
    for &d in &[2570usize, 31_260] {
        let sources: Vec<Vec<f32>> = (0..3)
            .map(|i| rand_matrix(1, d, 10 + i).into_vec())
            .collect();
        let refs: Vec<&[f32]> = sources.iter().map(|v| v.as_slice()).collect();
        g.throughput(Throughput::Elements(d as u64));
        g.bench_with_input(BenchmarkId::from_parameter(d), &refs, |bench, refs| {
            let mut out = vec![0.0_f32; d];
            bench.iter(|| vecops::average_into(black_box(refs), black_box(&mut out)))
        });
    }
    g.finish();
}

criterion_group!(
    kernels,
    bench_matmul,
    bench_workspace_kernels,
    bench_softmax,
    bench_simplex_projection,
    bench_aggregation
);
criterion_main!(kernels);
