//! Differential tests: the optimized algorithm implementations must be
//! **bit-identical** to the deliberately naive reference oracle in
//! `hm-testkit` — same keyed RNG streams, same accumulation order, same
//! projections, so every `assert_eq!` below is on raw `Vec<f32>` with no
//! tolerance. Any refactor of the hot path (fused steps, workspaces,
//! scratch reuse) that changes even one ULP anywhere fails here. The
//! HierMinimax oracle honours the fault plan and the aggregator, so the
//! round engine is checked against it under client crashes, stragglers,
//! edge outages, message loss, Byzantine uploads and robust aggregation,
//! on both executors.

use hierminimax::core::algorithms::{
    Algorithm, Drfa, DrfaConfig, FedAvg, FedAvgConfig, HierMinimax, HierMinimaxConfig, RunOpts,
};
use hierminimax::core::problem::FederatedProblem;
use hierminimax::data::scenarios::tiny_problem;
use hierminimax::simnet::trace::Event;
use hierminimax::simnet::{AttackModel, FaultPlan, Parallelism, Quantizer};
use hierminimax::tensor::Aggregator;
use hm_testkit::strategies::{arb_scenario, traced_opts};
use hm_testkit::{
    reference_drfa_round, reference_fedavg_round, reference_hierminimax_run, reference_init_w,
    ReferenceRound,
};
use proptest::prelude::*;

/// Per-round `(w, p)` iterates pulled out of a trace.
fn traced_iterates(events: &[Event]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut ws = Vec::new();
    let mut ps = Vec::new();
    for e in events {
        match e {
            Event::GlobalModel { w, .. } => ws.push(w.clone()),
            Event::WeightUpdate { p, .. } => ps.push(p.clone()),
            _ => {}
        }
    }
    (ws, ps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HierMinimax's per-round global model and edge weights match the
    /// naive reference round-for-round, bit-for-bit, under the generated
    /// fault plan (legacy dropout folded in).
    #[test]
    fn hierminimax_matches_reference(spec in arb_scenario()) {
        let fp = spec.problem();
        let cfg = spec.hierminimax_config();
        let r = HierMinimax::new(cfg.clone()).run(&fp, spec.run_seed);
        let (ws, ps) = traced_iterates(&r.trace.events());
        let reference: Vec<ReferenceRound> =
            reference_hierminimax_run(&fp, &cfg, spec.run_seed);

        prop_assert_eq!(ws.len(), reference.len());
        prop_assert_eq!(ps.len(), reference.len());
        for (k, rr) in reference.iter().enumerate() {
            prop_assert_eq!(&ws[k], &rr.w, "w diverged at round {} ({:?})", k, spec);
            prop_assert_eq!(&ps[k], &rr.p, "p diverged at round {} ({:?})", k, spec);
        }
        let last = reference.last().unwrap();
        prop_assert_eq!(&r.final_w, &last.w);
        prop_assert_eq!(&r.final_p, &last.p);
    }
}

/// Run HierMinimax traced and assert every round's `(w, p)` equals the
/// oracle's.
fn assert_matches_reference(tag: &str, fp: &FederatedProblem, cfg: &HierMinimaxConfig, seed: u64) {
    let r = HierMinimax::new(cfg.clone()).run(fp, seed);
    let (ws, ps) = traced_iterates(&r.trace.events());
    let reference = reference_hierminimax_run(fp, cfg, seed);
    assert_eq!(ws.len(), reference.len(), "{tag}: round count");
    assert_eq!(ps.len(), reference.len(), "{tag}: round count");
    for (k, rr) in reference.iter().enumerate() {
        assert_eq!(ws[k], rr.w, "{tag}: w diverged at round {k}");
        assert_eq!(ps[k], rr.p, "{tag}: p diverged at round {k}");
    }
}

/// The fixed (fault, quantizer, aggregator) grid: fault-free, chaos (with
/// and without the stochastic codec), and Byzantine uploads under each
/// robust rule, as full HierMinimax runs on both executors. Every cell
/// must match the oracle bit for bit.
#[test]
fn hierminimax_matches_reference_under_faults_and_robust_aggregators() {
    let fp = FederatedProblem::logistic_from_scenario(&tiny_problem(4, 3, 9));
    let chaos = FaultPlan::preset("chaos").unwrap();
    let byzantine = FaultPlan::preset("byzantine").unwrap();
    let cells = [
        (
            "none",
            FaultPlan::default(),
            Quantizer::Exact,
            Aggregator::Mean,
        ),
        ("chaos", chaos.clone(), Quantizer::Exact, Aggregator::Mean),
        (
            "chaos-q4",
            chaos,
            Quantizer::Stochastic { bits: 4 },
            Aggregator::Mean,
        ),
        (
            "byzantine-trimmed",
            byzantine.clone(),
            Quantizer::Exact,
            Aggregator::TrimmedMean { beta: 0.25 },
        ),
        (
            "byzantine-q4-median",
            byzantine.clone(),
            Quantizer::Stochastic { bits: 4 },
            Aggregator::CoordinateMedian,
        ),
        (
            "collude-clip",
            FaultPlan {
                attack: AttackModel::Collude,
                ..byzantine
            },
            Quantizer::Exact,
            Aggregator::NormClip { tau: 0.5 },
        ),
    ];
    for (name, fault, quantizer, aggregator) in cells {
        for par in [Parallelism::Sequential, Parallelism::Rayon] {
            let cfg = HierMinimaxConfig {
                rounds: 4,
                tau1: 2,
                tau2: 3,
                m_edges: 3,
                eta_w: 0.1,
                eta_p: 0.05,
                batch_size: 2,
                loss_batch: 3,
                quantizer,
                opts: RunOpts {
                    eval_every: 0,
                    parallelism: par,
                    trace: true,
                    fault: fault.clone(),
                    aggregator,
                    ..Default::default()
                },
                ..Default::default()
            };
            assert_matches_reference(&format!("{name} [{par:?}]"), &fp, &cfg, 11);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FedAvg's per-round global model matches the naive reference.
    #[test]
    fn fedavg_matches_reference(spec in arb_scenario()) {
        let fp = spec.problem();
        let n_clients = spec.n_edges * spec.clients_per_edge;
        let cfg = FedAvgConfig {
            rounds: spec.rounds,
            tau1: spec.tau1,
            m_clients: 1 + (spec.m_edges * spec.clients_per_edge) % n_clients,
            eta_w: 0.1,
            batch_size: 2,
            opts: traced_opts(),
        };
        let r = FedAvg::new(cfg.clone()).run(&fp, spec.run_seed);
        let (ws, _) = traced_iterates(&r.trace.events());
        prop_assert_eq!(ws.len(), cfg.rounds);

        let mut w = reference_init_w(&fp, spec.run_seed);
        for (k, traced) in ws.iter().enumerate() {
            w = reference_fedavg_round(&fp, &cfg, spec.run_seed, k, &w);
            prop_assert_eq!(traced, &w, "w diverged at round {} ({:?})", k, spec);
        }
        prop_assert_eq!(&r.final_w, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DRFA's per-round global model and per-edge weight vector match the
    /// naive reference, with the client-level `q` threaded between rounds.
    #[test]
    fn drfa_matches_reference(spec in arb_scenario()) {
        let fp = spec.problem();
        let n_clients = spec.n_edges * spec.clients_per_edge;
        let cfg = DrfaConfig {
            rounds: spec.rounds,
            tau1: spec.tau1,
            m_clients: 1 + (spec.m_edges * spec.clients_per_edge) % n_clients,
            eta_w: 0.1,
            eta_q: 0.05,
            batch_size: 2,
            loss_batch: 3,
            opts: traced_opts(),
        };
        let r = Drfa::new(cfg.clone()).run(&fp, spec.run_seed);
        let (ws, ps) = traced_iterates(&r.trace.events());
        prop_assert_eq!(ws.len(), cfg.rounds);
        prop_assert_eq!(ps.len(), cfg.rounds);

        let mut w = reference_init_w(&fp, spec.run_seed);
        let mut q = vec![1.0_f32 / n_clients as f32; n_clients];
        for k in 0..cfg.rounds {
            let (w_next, q_next, p_edge) =
                reference_drfa_round(&fp, &cfg, spec.run_seed, k, &w, &q);
            prop_assert_eq!(&ws[k], &w_next, "w diverged at round {} ({:?})", k, spec);
            prop_assert_eq!(&ps[k], &p_edge, "p diverged at round {} ({:?})", k, spec);
            w = w_next;
            q = q_next;
        }
        prop_assert_eq!(&r.final_w, &w);
    }
}

/// The reference oracle is itself deterministic and seed-sensitive: the
/// cheapest smoke test that the differential suite can actually fail.
#[test]
fn reference_is_seed_sensitive() {
    let spec = hm_testkit::ScenarioSpec {
        n_edges: 3,
        clients_per_edge: 2,
        data_seed: 5,
        run_seed: 11,
        rounds: 1,
        tau1: 2,
        tau2: 2,
        m_edges: 2,
        dropout: 0.0,
        quantizer: hierminimax::simnet::Quantizer::Exact,
        p_domain: hm_testkit::PDomainSpec::Simplex,
        weight_update_model: hierminimax::core::algorithms::WeightUpdateModel::RandomCheckpoint,
        fault: hierminimax::simnet::FaultPlan::default(),
    };
    let fp = spec.problem();
    let cfg = spec.hierminimax_config();
    let a = reference_hierminimax_run(&fp, &cfg, 11);
    let b = reference_hierminimax_run(&fp, &cfg, 11);
    let c = reference_hierminimax_run(&fp, &cfg, 12);
    assert_eq!(a, b);
    assert_ne!(a, c, "different seeds must produce different runs");
}
