//! Workspace-level determinism guarantees (DESIGN.md §7): every algorithm
//! produces bit-identical results across (a) repeated runs and (b)
//! sequential vs rayon-parallel client execution — including under
//! injected faults.

use hierminimax::core::algorithms::{
    AflConfig, Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, HierFavg, HierFavgConfig,
    HierMinimax, HierMinimaxConfig, MultiLevelConfig, MultiLevelMinimax, OverselectConfig,
    OverselectMinimax, RunOpts, StochasticAfl,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::core::RunResult;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::{FaultPlan, Parallelism};

fn opts(par: Parallelism) -> RunOpts {
    RunOpts {
        eval_every: 2,
        parallelism: par,
        trace: false,
        ..Default::default()
    }
}

fn all_algorithms(par: Parallelism) -> Vec<(&'static str, Box<dyn Algorithm>)> {
    vec![
        (
            "HierMinimax",
            Box::new(HierMinimax::new(HierMinimaxConfig {
                rounds: 5,
                tau1: 2,
                tau2: 3,
                m_edges: 2,
                eta_w: 0.1,
                eta_p: 0.05,
                batch_size: 2,
                loss_batch: 4,
                weight_update_model: Default::default(),
                quantizer: Default::default(),
                dropout: 0.0,
                tau2_per_edge: None,
                opts: opts(par),
            })),
        ),
        (
            "HierFAVG",
            Box::new(HierFavg::new(HierFavgConfig {
                rounds: 5,
                tau1: 2,
                tau2: 3,
                m_edges: 2,
                eta_w: 0.1,
                batch_size: 2,
                quantizer: Default::default(),
                dropout: 0.0,
                opts: opts(par),
            })),
        ),
        (
            "FedAvg",
            Box::new(FedAvg::new(FedAvgConfig {
                rounds: 5,
                tau1: 2,
                m_clients: 4,
                eta_w: 0.1,
                batch_size: 2,
                opts: opts(par),
            })),
        ),
        (
            "Stochastic-AFL",
            Box::new(StochasticAfl::new(AflConfig {
                rounds: 5,
                m_clients: 4,
                eta_w: 0.1,
                eta_q: 0.05,
                batch_size: 2,
                loss_batch: 4,
                opts: opts(par),
            })),
        ),
        (
            "DRFA",
            Box::new(Drfa::new(DrfaConfig {
                rounds: 5,
                tau1: 2,
                m_clients: 4,
                eta_w: 0.1,
                eta_q: 0.05,
                batch_size: 2,
                loss_batch: 4,
                opts: opts(par),
            })),
        ),
    ]
}

fn assert_identical(name: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.final_w, b.final_w, "{name}: final_w differs");
    assert_eq!(a.final_p, b.final_p, "{name}: final_p differs");
    assert_eq!(a.avg_w, b.avg_w, "{name}: avg_w differs");
    assert_eq!(a.comm, b.comm, "{name}: comm stats differ");
    assert_eq!(a.faults, b.faults, "{name}: fault stats differ");
    for (ra, rb) in a.history.rounds.iter().zip(&b.history.rounds) {
        assert_eq!(
            ra.p, rb.p,
            "{name}: history p differs at round {}",
            ra.round
        );
        assert_eq!(
            ra.eval.as_ref().map(|e| e.per_edge_accuracy.clone()),
            rb.eval.as_ref().map(|e| e.per_edge_accuracy.clone()),
            "{name}: eval differs at round {}",
            ra.round
        );
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let sc = tiny_problem(3, 2, 11);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for (name, alg) in all_algorithms(Parallelism::Sequential) {
        let a = alg.run(&fp, 5);
        let b = alg.run(&fp, 5);
        assert_identical(name, &a, &b);
    }
}

#[test]
fn parallel_matches_sequential_for_every_algorithm() {
    let sc = tiny_problem(3, 2, 12);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let seq = all_algorithms(Parallelism::Sequential);
    let par = all_algorithms(Parallelism::Rayon);
    for ((name, a), (_, b)) in seq.into_iter().zip(par) {
        let ra = a.run(&fp, 9);
        let rb = b.run(&fp, 9);
        assert_identical(name, &ra, &rb);
    }
}

#[test]
fn parallel_matches_sequential_for_mlp() {
    // Non-convex path: exercises the MLP backward pass under rayon.
    let sc = tiny_problem(3, 2, 13);
    let fp = FederatedProblem::mlp_from_scenario(&sc, &[12, 6]);
    let cfg = |par| HierMinimaxConfig {
        rounds: 4,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        eta_w: 0.05,
        eta_p: 0.02,
        batch_size: 2,
        loss_batch: 4,
        weight_update_model: Default::default(),
        quantizer: Default::default(),
        dropout: 0.0,
        tau2_per_edge: None,
        opts: opts(par),
    };
    let a = HierMinimax::new(cfg(Parallelism::Sequential)).run(&fp, 3);
    let b = HierMinimax::new(cfg(Parallelism::Rayon)).run(&fp, 3);
    assert_identical("HierMinimax-MLP", &a, &b);
}

#[test]
fn workspace_grad_is_bit_identical_to_legacy_path() {
    // `loss_grad_ws` with a long-lived workspace must be bit-identical to
    // `loss_grad` (which allocates fresh scratch every call), for every
    // in-tree model. The workspace is REUSED across calls with varying
    // batch sizes and parameters — exactly the hot-loop pattern of
    // `local_sgd` — so stale-buffer bugs (undersized or leftover scratch
    // contents influencing a later call) fail this test. Running the same
    // comparison under `Parallelism::Rayon` exercises the kernels' parallel
    // paths from worker threads.
    use hierminimax::data::rng::{Purpose, StreamKey};
    use hierminimax::data::{Dataset, StreamRng};
    use hierminimax::nn::{Mlp, Model, MulticlassLogistic, SimpleCnn, Workspace};
    use hierminimax::tensor::Matrix;

    fn batch_of(dim: usize, classes: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Misc, n as u64, 0));
        let x = Matrix::from_fn(n, dim, |_, _| rng.normal() as f32 * 0.6);
        let y = (0..n).map(|_| rng.below(classes)).collect();
        Dataset::new(x, y, classes)
    }

    let models: Vec<(&str, Box<dyn Model>, usize, usize)> = vec![
        ("logistic", Box::new(MulticlassLogistic::new(16, 4)), 16, 4),
        ("mlp", Box::new(Mlp::new(16, &[12, 8], 4)), 16, 4),
        ("cnn", Box::new(SimpleCnn::new(10, 3, 2, 3, 16, 3)), 100, 3),
    ];

    for par in [Parallelism::Sequential, Parallelism::Rayon] {
        par.map_ref(&models, |(name, model, dim, classes)| {
            let mut ws = Workspace::new(); // one workspace for all 5 calls
            let mut g_ws = vec![0.0_f32; model.num_params()];
            let mut g_legacy = vec![0.0_f32; model.num_params()];
            // Batch sizes deliberately shrink and grow so buffer resizes in
            // both directions are covered.
            for (call, &n) in [5usize, 2, 7, 1, 4].iter().enumerate() {
                let batch = batch_of(*dim, *classes, n, 31 + call as u64);
                let mut rng = StreamRng::for_key(StreamKey::new(77, Purpose::Init, call as u64, 0));
                let params: Vec<f32> = (0..model.num_params())
                    .map(|_| rng.normal() as f32 * 0.3)
                    .collect();
                let l_ws = model.loss_grad_ws(&params, &batch, &mut g_ws, &mut ws);
                let l_legacy = model.loss_grad(&params, &batch, &mut g_legacy);
                assert_eq!(
                    l_ws.to_bits(),
                    l_legacy.to_bits(),
                    "{name} ({par:?}): loss differs on call {call}"
                );
                assert_eq!(
                    g_ws, g_legacy,
                    "{name} ({par:?}): gradient differs on call {call}"
                );
            }
        });
    }
}

#[test]
fn fig4_mlp_bits_are_pinned() {
    // The fig4 network (256→100→50→10) on fixed data: loss and gradient
    // bits are pinned, so a forward or backward kernel change that moves
    // any bit at these widths fails here. Inputs are clamped like image
    // pixels (≈30 % zeros, some of them -0.0); the ReLU'd hidden layers
    // add their own zeros.
    use hierminimax::data::rng::{Purpose, StreamKey};
    use hierminimax::data::{Dataset, StreamRng};
    use hierminimax::nn::{Mlp, Model, Workspace};
    use hierminimax::tensor::Matrix;

    fn batch_of(n: usize, seed: u64) -> Dataset {
        let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Misc, n as u64, 0));
        let x = Matrix::from_fn(n, 256, |_, _| {
            let v = (rng.normal() * 0.6 + 0.3) as f32;
            match (v > 0.0, rng.below(4)) {
                (true, _) => v,
                (false, 0) => -0.0,
                (false, _) => 0.0,
            }
        });
        let y = (0..n).map(|_| rng.below(10)).collect();
        Dataset::new(x, y, 10)
    }

    /// 64-bit FNV-1a over the gradient's `to_bits`, little-endian.
    fn fnv1a(grad: &[f32]) -> u64 {
        grad.iter()
            .flat_map(|g| g.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    let mlp = Mlp::new(256, &[100, 50], 10);
    let params = mlp.init_params(&mut StreamRng::new(2024, Purpose::Init, 0, 0));
    let mut grad = vec![0.0_f32; mlp.num_params()];
    let loss = mlp.loss_grad_ws(&params, &batch_of(8, 5), &mut grad, &mut Workspace::new());
    let got = (loss.to_bits(), fnv1a(&grad));
    let want = (0x4001_44fd_dc00_0000, 0xd9fe_1cd1_fc52_0c0d);
    assert_eq!(got, want, "loss_grad_ws at batch 8: loss {loss:e}");
    let loss16 = mlp.loss(&params, &batch_of(16, 6)).to_bits();
    assert_eq!(loss16, 0x4003_0b43_0600_0000, "loss at batch 16");
}

/// The four hierarchical algorithms (the ones with a `τ2`-block structure,
/// i.e. the ones the round engine applies to), parameterised by
/// parallelism and fault plan.
fn hierarchical_algorithms(
    par: Parallelism,
    fault: &FaultPlan,
) -> Vec<(&'static str, Box<dyn Algorithm>)> {
    let opts = RunOpts {
        eval_every: 2,
        parallelism: par,
        fault: fault.clone(),
        ..Default::default()
    };
    vec![
        (
            "HierMinimax",
            Box::new(HierMinimax::new(HierMinimaxConfig {
                rounds: 4,
                tau1: 2,
                tau2: 3,
                m_edges: 2,
                eta_w: 0.1,
                eta_p: 0.05,
                batch_size: 2,
                loss_batch: 4,
                weight_update_model: Default::default(),
                quantizer: Default::default(),
                dropout: 0.0,
                tau2_per_edge: None,
                opts: opts.clone(),
            })),
        ),
        (
            "HierFAVG",
            Box::new(HierFavg::new(HierFavgConfig {
                rounds: 4,
                tau1: 2,
                tau2: 3,
                m_edges: 2,
                eta_w: 0.1,
                batch_size: 2,
                quantizer: Default::default(),
                dropout: 0.0,
                opts: opts.clone(),
            })),
        ),
        (
            "MultiLevelMinimax",
            Box::new(MultiLevelMinimax::new(MultiLevelConfig {
                rounds: 3,
                tau1: 2,
                tau2: 2,
                upper: Default::default(),
                m_groups: 2,
                eta_w: 0.05,
                eta_p: 0.02,
                batch_size: 2,
                loss_batch: 4,
                dropout: 0.0,
                opts: opts.clone(),
            })),
        ),
        (
            "Overselect",
            Box::new(OverselectMinimax::new(OverselectConfig {
                rounds: 3,
                tau1: 2,
                tau2: 2,
                m_edges: 2,
                m_over: 3,
                seconds_per_slot: vec![1.0, 1.5, 2.0, 1.2],
                eta_w: 0.1,
                eta_p: 0.05,
                batch_size: 2,
                loss_batch: 4,
                dropout: 0.0,
                opts,
            })),
        ),
    ]
}

#[test]
fn hierarchical_algorithms_match_across_executors_under_faults() {
    // The round engine (one task chain per edge, pooled scratch, fused
    // aggregation, batched metering) gives the same bits — models,
    // weights, comm totals, history — on the sequential and rayon
    // executors, for every hierarchical algorithm, fault-free and under
    // the chaos preset.
    let sc = tiny_problem(4, 2, 21);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    let plans = [
        ("none", FaultPlan::preset("none").unwrap()),
        ("chaos", FaultPlan::preset("chaos").unwrap()),
    ];
    for (plan_name, plan) in &plans {
        let seq = hierarchical_algorithms(Parallelism::Sequential, plan);
        let par = hierarchical_algorithms(Parallelism::Rayon, plan);
        for ((name, a), (_, b)) in seq.into_iter().zip(par) {
            let ra = a.run(&fp, 17);
            let rb = b.run(&fp, 17);
            assert_identical(&format!("{name} [{plan_name}]"), &ra, &rb);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let sc = tiny_problem(3, 2, 14);
    let fp = FederatedProblem::logistic_from_scenario(&sc);
    for (name, alg) in all_algorithms(Parallelism::Sequential) {
        let a = alg.run(&fp, 1);
        let b = alg.run(&fp, 2);
        assert_ne!(a.final_w, b.final_w, "{name}: seeds do not change the run");
    }
}
