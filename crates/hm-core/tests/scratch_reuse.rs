//! Pooled training scratch survives from one parallel call to the next.
//!
//! `hm_nn::with_scratch` pools bundles per thread, so "steady-state rounds
//! allocate nothing" (DESIGN.md §7b) holds only if the threads that run a
//! round's parts are the same threads that ran the previous round's. This
//! pins that for `Parallelism::Rayon`: every part of a second call must get
//! back the bundle the first call marked on its thread.

use hm_nn::with_scratch;
use hm_simnet::Parallelism;
use std::sync::Barrier;

const MARK: f32 = 1234.5;

#[test]
fn rayon_parts_reuse_the_previous_calls_scratch() {
    let threads = rayon::current_num_threads();
    // The barrier holds every part until all `threads` run at once, so each
    // call touches every pool thread exactly once.
    let barrier = Barrier::new(threads);
    let first = Parallelism::Rayon.map_indexed(threads, |_| {
        barrier.wait();
        with_scratch(|s| {
            s.grad.clear();
            s.grad.push(MARK);
            std::thread::current().id()
        })
    });
    let second = Parallelism::Rayon.map_indexed(threads, |_| {
        barrier.wait();
        let reused = with_scratch(|s| s.grad.first() == Some(&MARK));
        (std::thread::current().id(), reused)
    });
    for (part, (thread, reused)) in second.iter().enumerate() {
        assert!(
            reused,
            "part {part} on {thread:?} got a fresh scratch bundle; \
             first call ran on {first:?}"
        );
    }
}
