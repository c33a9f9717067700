//! The three workloads: problem generation and run configuration.

use hm_core::algorithms::{HierMinimaxConfig, RunOpts};
use hm_core::{CheckpointOpts, FederatedProblem};
use hm_data::generators::synthetic_images::ImageConfig;
use hm_data::scenarios::{
    linear_sizes, one_class_per_edge_sized, similarity_scenario, HierScenario, SimilarityOptions,
};
use hm_simnet::{AttackModel, ChurnPlan, FaultPlan, Parallelism};
use hm_telemetry::Telemetry;
use hm_tensor::Aggregator;

/// Data seed of the paper configurations (the `fig3`/`fig4` bins' first
/// data realization). The benchmark seed picks the training run seeds;
/// see METRICS.md for why the data realization stays fixed.
const DATA_SEED: u64 = 2024;

/// Which program configuration a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 3: convex logistic regression, one class per edge.
    Fig3,
    /// Fig. 4: MLP 256→100→50→10 on the 50%-similarity split.
    Fig4,
    /// The Fig. 3 problem through the fault, Byzantine, quarantine, churn,
    /// checkpoint and telemetry paths.
    ByzantineChurn,
}

/// A named benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Program configuration.
    pub kind: Kind,
    /// Worst-edge accuracy target for `rounds_to_target`.
    pub target: f64,
    /// Rounds of the fixed-length training run.
    pub rounds: usize,
    /// Fixed-length runs per benchmark run (panel entries `0..finals`).
    pub finals: usize,
    /// Training runs (distinct run seeds) searched for the target per
    /// benchmark run.
    pub panel: usize,
    /// First run length tried when searching for the target; doubled
    /// until the target is reached (a longer run shares a shorter run's
    /// prefix bit for bit). Every length tried must be an eval round, so
    /// the runs can be compared there.
    pub first_guess: usize,
    /// Longest run searched for the target.
    pub max_rounds: usize,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig3-convex",
        kind: Kind::Fig3,
        target: 0.66,
        rounds: 3000,
        finals: 4,
        panel: 40,
        first_guess: 240,
        max_rounds: 3000,
        eval_every: 30,
    },
    Workload {
        name: "fig4-mlp",
        kind: Kind::Fig4,
        target: 0.45,
        rounds: 400,
        finals: 6,
        panel: 20,
        first_guess: 280,
        max_rounds: 2400,
        eval_every: 40,
    },
    Workload {
        name: "byzantine-churn",
        kind: Kind::ByzantineChurn,
        target: 0.55,
        rounds: 1000,
        finals: 8,
        panel: 32,
        first_guess: 330,
        max_rounds: 3000,
        eval_every: 30,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Layer widths of the model (input, hidden…, classes).
    pub fn widths(&self) -> Vec<usize> {
        match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => vec![256, 10],
            Kind::Fig4 => vec![256, 100, 50, 10],
        }
    }

    /// Local-SGD mini-batch rows.
    pub fn batch_size(&self) -> usize {
        match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => 1,
            Kind::Fig4 => 8,
        }
    }

    /// Participating edges per round (`m_E`).
    pub fn m_edges(&self) -> usize {
        match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => 5,
            Kind::Fig4 => 2,
        }
    }

    /// Whether the fault plan is all zero, so the closed-form cloud bill
    /// applies.
    pub fn fault_free(&self) -> bool {
        self.kind != Kind::ByzantineChurn
    }

    /// Whether the workload writes snapshots and a JSONL event log.
    pub fn writes_to_disk(&self) -> bool {
        self.kind == Kind::ByzantineChurn
    }

    /// The client→edge / edge→cloud reduction rule.
    pub fn aggregator(&self) -> Aggregator {
        match self.kind {
            Kind::Fig3 | Kind::Fig4 => Aggregator::Mean,
            Kind::ByzantineChurn => Aggregator::TrimmedMean { beta: 0.25 },
        }
    }

    /// Generate the workload's data.
    pub fn scenario(&self) -> HierScenario {
        match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => {
                let sizes = linear_sizes(60, 0.15, 10);
                let cfg = ImageConfig::emnist_digits_like();
                one_class_per_edge_sized(cfg, 10, 3, &sizes, 500, DATA_SEED)
            }
            Kind::Fig4 => similarity_scenario(
                ImageConfig::fashion_mnist_like(),
                10,
                3,
                400,
                0.5,
                0.25,
                &SimilarityOptions::default(),
                DATA_SEED,
            ),
        }
    }

    /// Build the problem the program is handed.
    pub fn problem(&self, scenario: &HierScenario) -> FederatedProblem {
        match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => FederatedProblem::logistic_from_scenario(scenario),
            Kind::Fig4 => FederatedProblem::mlp_from_scenario(scenario, &[100, 50]),
        }
    }

    /// HierMinimax configuration for a run of `rounds` rounds.
    ///
    /// `telemetry` is the handle to use (a JSONL log for the workload
    /// that writes one, or a stamping sink in the traced run);
    /// `ckpt_dir` is where snapshots go for the workload that writes
    /// them.
    pub fn config(
        &self,
        rounds: usize,
        telemetry: Telemetry,
        ckpt_dir: &std::path::Path,
    ) -> HierMinimaxConfig {
        let (eta_w, eta_p) = match self.kind {
            Kind::Fig3 | Kind::ByzantineChurn => (0.02, 0.005),
            Kind::Fig4 => (0.05, 0.003),
        };
        let mut opts = RunOpts {
            eval_every: self.eval_every,
            parallelism: Parallelism::Rayon,
            telemetry,
            ..Default::default()
        };
        opts.aggregator = self.aggregator();
        if self.kind == Kind::ByzantineChurn {
            opts.fault = FaultPlan {
                corrupt_rate: 0.1,
                attack: AttackModel::SignFlip,
                attack_scale: 1.0,
                ..FaultPlan::preset("chaos").expect("chaos preset")
            };
            opts.quarantine_z = 3.0;
            opts.quarantine_window = 5;
            // Balanced membership: 30 clients × 2% leaves ≈ 10 edges × 6%
            // joins per round, and no edge failures.
            opts.churn = ChurnPlan {
                leave_rate: 0.02,
                join_rate: 0.06,
                edge_fail_rate: 0.0,
                rehome: true,
            };
            opts.checkpoint = CheckpointOpts::writing(ckpt_dir, 25);
        }
        HierMinimaxConfig {
            rounds,
            tau1: 2,
            tau2: 2,
            m_edges: self.m_edges(),
            eta_w,
            eta_p,
            batch_size: self.batch_size(),
            loss_batch: 16,
            opts,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_lengths_are_eval_rounds() {
        for w in &WORKLOADS {
            assert!(w.finals <= w.panel, "{}", w.name);
            let mut len = w.first_guess;
            loop {
                assert_eq!(len % w.eval_every, 0, "{}: {len} rounds", w.name);
                if len >= w.max_rounds {
                    break;
                }
                len = (2 * len).min(w.max_rounds);
            }
        }
    }
}
