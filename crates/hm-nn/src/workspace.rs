//! Reusable forward/backward scratch — the allocation pool behind
//! [`Model::loss_grad_ws`](crate::Model::loss_grad_ws).
//!
//! A [`Workspace`] owns every intermediate buffer a model needs for one
//! `loss_grad` evaluation: activations, logits, backprop deltas, the CNN's
//! per-sample conv caches. Buffers are sized lazily on first use and then
//! reused, so a workspace held across the τ1 local-SGD steps of a client
//! makes the steady-state step loop allocation-free.
//!
//! One workspace per worker thread: a workspace is plain mutable state and
//! must not be shared between concurrent gradient evaluations. Reuse across
//! models or batch sizes is safe — every kernel writing into a buffer
//! resizes it first and either overwrites or explicitly zeroes it, so no
//! stale values leak between calls.

use crate::cnn::ConvCache;
use hm_tensor::Matrix;

/// Scratch buffers for one in-flight gradient evaluation.
///
/// The fields are crate-private: models lay them out as they need, callers
/// only create the workspace and hand it back on every call.
#[derive(Default)]
pub struct Workspace {
    /// Batch logits (`n × classes`).
    pub(crate) logits: Matrix,
    /// Cross-entropy backward delta, ping-ponged through the layer stack.
    pub(crate) delta: Matrix,
    /// Second delta buffer (swap partner of `delta`).
    pub(crate) delta2: Matrix,
    /// MLP hidden activations (`acts[l]` = post-ReLU output of layer `l`).
    pub(crate) acts: Vec<Matrix>,
    /// CNN flat conv features (`n × flat`).
    pub(crate) feats: Matrix,
    /// CNN fully-connected hidden activations (`n × hidden`).
    pub(crate) hid: Matrix,
    /// CNN gradient w.r.t. the flat features (`n × flat`).
    pub(crate) delta_feat: Matrix,
    /// CNN per-sample conv-stack caches (one per batch row).
    pub(crate) conv: Vec<ConvCache>,
    /// CNN per-sample backward scratch: grad w.r.t. conv2 activations.
    pub(crate) da2: Vec<f32>,
    /// CNN per-sample backward scratch: grad w.r.t. pool1 output.
    pub(crate) dp1: Vec<f32>,
    /// CNN per-sample backward scratch: grad w.r.t. conv1 activations.
    pub(crate) da1: Vec<f32>,
}

impl Workspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure `acts` holds at least `n` matrices (shapes are fixed up by
    /// the kernels writing into them).
    pub(crate) fn ensure_acts(&mut self, n: usize) {
        while self.acts.len() < n {
            self.acts.push(Matrix::zeros(0, 0));
        }
    }
}
