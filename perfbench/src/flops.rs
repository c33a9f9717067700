//! FLOP counts of one dense-network step, from the layer widths.
//!
//! Only the matrix products are counted (2 FLOPs per multiply-add); bias
//! adds, activations and the softmax are linear in the layer widths and
//! left out. `widths` lists the input width, the hidden widths and the
//! class count, so multinomial logistic regression is `[d_in, classes]`.

/// Multiply-adds of one forward pass over one sample.
fn forward_macs(widths: &[usize]) -> u64 {
    widths.windows(2).map(|w| (w[0] * w[1]) as u64).sum()
}

/// FLOPs of a forward pass (`Model::loss` / `predict`) over `rows` samples.
pub fn forward_flops(widths: &[usize], rows: usize) -> u64 {
    2 * rows as u64 * forward_macs(widths)
}

/// FLOPs of a forward + backward pass (`Model::loss_grad_ws`) over `rows`
/// samples: the forward products, one weight-gradient product per layer
/// (`Δᵀ·input`), and one input-gradient product (`Δ·W`) for every layer
/// but the first.
pub fn loss_grad_flops(widths: &[usize], rows: usize) -> u64 {
    let first = widths
        .first()
        .zip(widths.get(1))
        .map_or(0, |(a, b)| (a * b) as u64);
    let input_grad_macs = forward_macs(widths) - first;
    2 * forward_flops(widths, rows) + 2 * rows as u64 * input_grad_macs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logistic_step_by_hand() {
        // fig3: 16×16 inputs, 10 classes, batch 1. Forward x·Wᵀ is
        // 256·10 multiply-adds; backward is only Δᵀ·x (no input gradient).
        let widths = [256, 10];
        assert_eq!(forward_flops(&widths, 1), 2 * 2560);
        assert_eq!(loss_grad_flops(&widths, 1), 2 * (2560 + 2560));
        assert_eq!(forward_flops(&widths, 500), 500 * 5120);
    }

    #[test]
    fn mlp_step_by_hand() {
        // fig4: 256→100→50→10 at batch 8.
        // Layer MACs per sample: 25_600 + 5_000 + 500 = 31_100.
        let widths = [256, 100, 50, 10];
        assert_eq!(forward_flops(&widths, 8), 2 * 8 * 31_100);
        // Backward: weight gradients 31_100 again, input gradients for the
        // two upper layers 5_000 + 500.
        assert_eq!(
            loss_grad_flops(&widths, 8),
            2 * 8 * (31_100 + 31_100 + 5_500)
        );
        assert_eq!(loss_grad_flops(&widths, 8), 1_083_200);
    }
}
