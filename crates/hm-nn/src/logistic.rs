//! Multinomial logistic regression — the paper's convex model (§6.1).
//!
//! Parameters are packed flat as `[W row-major (classes × dim), b
//! (classes)]`, so the EMNIST setting of the paper (`d = 785 × 10 = 7850`)
//! corresponds to `dim = 784, classes = 10` plus the bias row.
//!
//! The loss `CE(softmax(Wx + b), y)` is convex in `(W, b)`, which is what
//! Theorem 1's duality-gap analysis requires.

use crate::losses::{cross_entropy_backward_into, cross_entropy_from_logits};
use crate::model::Model;
use crate::pool::with_scratch;
use crate::workspace::Workspace;
use hm_data::{Dataset, StreamRng};
use hm_tensor::{ops, Matrix, MatrixView};

/// Multinomial (softmax) logistic regression.
#[derive(Debug, Clone)]
pub struct MulticlassLogistic {
    dim: usize,
    classes: usize,
}

impl MulticlassLogistic {
    /// Create a model for `dim`-dimensional inputs and `classes` classes.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(dim > 0 && classes > 0, "degenerate logistic model");
        Self { dim, classes }
    }

    /// Input feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Split a flat parameter slice into `(W, b)` views.
    fn unpack<'a>(&self, params: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        assert_eq!(params.len(), self.num_params(), "bad parameter length");
        params.split_at(self.classes * self.dim)
    }

    /// Logits `X·Wᵀ + b` for a batch, written into `ws.logits`. The weight
    /// matrix is viewed in place from the flat parameter slice — no copy.
    fn logits_into(&self, params: &[f32], x: &Matrix, ws: &mut Workspace) {
        assert_eq!(x.cols(), self.dim, "input dim mismatch");
        let (w_flat, b) = self.unpack(params);
        let w = MatrixView::new(self.classes, self.dim, w_flat);
        ops::matmul_transb_into(x.view(), w, &mut ws.logits);
        ops::add_row_inplace(&mut ws.logits, b);
    }
}

impl Model for MulticlassLogistic {
    fn num_params(&self) -> usize {
        self.classes * (self.dim + 1)
    }

    fn init_params(&self, _rng: &mut StreamRng) -> Vec<f32> {
        // Zero init: the cross-entropy is convex, and zero is the symmetric
        // starting point (uniform predicted distribution).
        vec![0.0; self.num_params()]
    }

    fn loss(&self, params: &[f32], batch: &Dataset) -> f64 {
        with_scratch(|s| {
            self.logits_into(params, &batch.x, &mut s.ws);
            cross_entropy_from_logits(&s.ws.logits, &batch.y)
        })
    }

    fn loss_grad_ws(
        &self,
        params: &[f32],
        batch: &Dataset,
        grad: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        assert_eq!(grad.len(), self.num_params(), "bad gradient length");
        self.logits_into(params, &batch.x, ws);
        let loss = cross_entropy_from_logits(&ws.logits, &batch.y);
        // Δ = (softmax − onehot)/n;  gW = Δᵀ X;  gb = column sums of Δ.
        cross_entropy_backward_into(&ws.logits, &batch.y, &mut ws.delta);
        let (gw_dst, gb_dst) = grad.split_at_mut(self.classes * self.dim);
        ops::matmul_transa_slice(ws.delta.view(), batch.x.view(), gw_dst); // classes × dim
        ops::col_sums_into(ws.delta.view(), gb_dst); // classes
        loss
    }

    fn predict(&self, params: &[f32], x: &Matrix) -> Vec<usize> {
        with_scratch(|s| {
            self.logits_into(params, x, &mut s.ws);
            ops::argmax_rows(&s.ws.logits)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use hm_data::rng::{Purpose, StreamKey};

    fn toy_batch() -> Dataset {
        let x = Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 0.0, 0.5, //
                0.0, 1.0, -0.5, //
                -1.0, 0.3, 0.2, //
                0.4, -0.9, 1.0,
            ],
        );
        Dataset::new(x, vec![0, 1, 2, 0], 3)
    }

    #[test]
    fn param_count() {
        let m = MulticlassLogistic::new(784, 10);
        assert_eq!(m.num_params(), 7850); // the paper's W = R^7850
    }

    #[test]
    fn zero_params_give_uniform_loss() {
        let m = MulticlassLogistic::new(3, 3);
        let p = vec![0.0; m.num_params()];
        let loss = m.loss(&p, &toy_batch());
        assert!((loss - (3.0_f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = MulticlassLogistic::new(3, 3);
        let mut rng = StreamRng::for_key(StreamKey::new(1, Purpose::Init, 0, 0));
        let params: Vec<f32> = (0..m.num_params())
            .map(|_| rng.normal() as f32 * 0.5)
            .collect();
        let max_err = check_gradient(&m, &params, &toy_batch(), 24, 7);
        assert!(max_err < 5e-3, "gradcheck error {max_err}");
    }

    #[test]
    fn sgd_reduces_loss_and_fits_toy_problem() {
        let m = MulticlassLogistic::new(3, 3);
        let batch = toy_batch();
        let mut p = vec![0.0_f32; m.num_params()];
        let mut g = vec![0.0_f32; m.num_params()];
        let l0 = m.loss(&p, &batch);
        for _ in 0..500 {
            m.loss_grad(&p, &batch, &mut g);
            hm_tensor::vecops::axpy(-0.5, &g, &mut p);
        }
        let l1 = m.loss(&p, &batch);
        assert!(l1 < l0 * 0.2, "loss {l0} -> {l1}");
        assert_eq!(m.accuracy(&p, &batch), 1.0);
    }

    #[test]
    #[should_panic(expected = "bad parameter length")]
    fn wrong_param_len_panics() {
        let m = MulticlassLogistic::new(3, 3);
        let _ = m.loss(&[0.0; 5], &toy_batch());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_batch(dim: usize, classes: usize, n: usize, seed: u64) -> Dataset {
            let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Misc, 0, 0));
            let x = Matrix::from_fn(n, dim, |_, _| rng.normal() as f32 * 0.7);
            let y = (0..n).map(|_| rng.below(classes)).collect();
            Dataset::new(x, y, classes)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_loss_nonnegative_and_finite(
                dim in 1usize..6, classes in 2usize..5, n in 1usize..6, seed in 0u64..300,
            ) {
                let m = MulticlassLogistic::new(dim, classes);
                let batch = arb_batch(dim, classes, n, seed);
                let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Init, 0, 1));
                let params: Vec<f32> = (0..m.num_params()).map(|_| rng.normal() as f32).collect();
                let loss = m.loss(&params, &batch);
                prop_assert!(loss.is_finite() && loss >= 0.0, "loss {}", loss);
            }

            #[test]
            fn prop_gradient_matches_fd(
                dim in 1usize..5, classes in 2usize..4, n in 1usize..5, seed in 0u64..200,
            ) {
                let m = MulticlassLogistic::new(dim, classes);
                let batch = arb_batch(dim, classes, n, seed);
                let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Init, 0, 2));
                let params: Vec<f32> =
                    (0..m.num_params()).map(|_| rng.normal() as f32 * 0.3).collect();
                let err = check_gradient(&m, &params, &batch, 12, seed);
                prop_assert!(err < 1e-2, "gradcheck err {}", err);
            }

            #[test]
            fn prop_accuracy_in_unit_interval(
                dim in 1usize..6, classes in 2usize..5, n in 1usize..8, seed in 0u64..300,
            ) {
                let m = MulticlassLogistic::new(dim, classes);
                let batch = arb_batch(dim, classes, n, seed);
                let params = vec![0.1_f32; m.num_params()];
                let acc = m.accuracy(&params, &batch);
                prop_assert!((0.0..=1.0).contains(&acc));
            }

            #[test]
            fn prop_duplicated_batch_has_same_loss(
                dim in 1usize..5, classes in 2usize..4, seed in 0u64..200,
            ) {
                // Mean loss is invariant to duplicating every sample.
                let m = MulticlassLogistic::new(dim, classes);
                let batch = arb_batch(dim, classes, 3, seed);
                let doubled = {
                    let idx: Vec<usize> = (0..3).chain(0..3).collect();
                    batch.subset(&idx)
                };
                let mut rng = StreamRng::for_key(StreamKey::new(seed, Purpose::Init, 0, 3));
                let params: Vec<f32> = (0..m.num_params()).map(|_| rng.normal() as f32).collect();
                let a = m.loss(&params, &batch);
                let b = m.loss(&params, &doubled);
                prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn grad_is_overwritten_not_accumulated() {
        let m = MulticlassLogistic::new(3, 3);
        let p = vec![0.1; m.num_params()];
        let mut g1 = vec![999.0; m.num_params()];
        let mut g2 = vec![0.0; m.num_params()];
        m.loss_grad(&p, &toy_batch(), &mut g1);
        m.loss_grad(&p, &toy_batch(), &mut g2);
        assert_eq!(g1, g2);
    }
}
