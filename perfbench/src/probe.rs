//! Outside-in probes for the traced run.
//!
//! Nothing here touches a crate's internals: [`TimedModel`] is a
//! forwarding `hm_nn::Model` decorator, [`StampSink`] and [`TimedSink`]
//! are `hm_telemetry::Sink` implementations. The program under test sees
//! an ordinary model and an ordinary telemetry sink, which is why the
//! traced run must return the same bits as the untraced one (checked by
//! the caller).

use hm_data::{Dataset, StreamRng};
use hm_nn::{Model, Workspace};
use hm_telemetry::{Sink, TelemetryEvent};
use hm_tensor::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process (a shared monotonic
/// clock for spans and event stamps).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Which `Model` entry point a span covers; the discriminant indexes
/// per-call tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `loss_grad_ws` — local SGD steps (Phase 1).
    LossGrad = 0,
    /// `loss` — Phase-2 loss estimates.
    Loss = 1,
    /// `predict` — test evaluation.
    Predict = 2,
}

impl Call {
    /// Tag used in the span dump.
    pub fn as_str(self) -> &'static str {
        match self {
            Call::LossGrad => "loss_grad",
            Call::Loss => "loss",
            Call::Predict => "predict",
        }
    }
}

/// One model call: `[start, end)` on the shared clock, on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Entry point.
    pub call: Call,
    /// Small per-process thread number (0 = first thread seen).
    pub thread: u32,
    /// Start, ns on [`now_ns`]'s clock.
    pub start: u64,
    /// End, ns on [`now_ns`]'s clock.
    pub end: u64,
    /// Batch rows the call processed.
    pub rows: u32,
}

fn thread_no() -> u32 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static NO: u32 = NEXT.fetch_add(1, Ordering::Relaxed) as u32;
    }
    NO.with(|n| *n)
}

/// A `Model` that forwards every call to `inner` and records a [`Span`]
/// for each `loss_grad_ws`, `loss` and `predict`. Everything else is a
/// plain forward, and `accuracy` keeps the trait's default so evaluation
/// reaches `predict` through this wrapper exactly as it reaches the
/// inner model's.
pub struct TimedModel {
    inner: Arc<dyn Model>,
    spans: Mutex<Vec<Span>>,
}

impl TimedModel {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Model>) -> Self {
        Self {
            inner,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Take the spans recorded so far.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    fn timed<R>(&self, call: Call, rows: usize, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        let span = Span {
            call,
            thread: thread_no(),
            start,
            end,
            rows: rows as u32,
        };
        self.spans.lock().expect("span store poisoned").push(span);
        out
    }
}

impl Model for TimedModel {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn init_params(&self, rng: &mut StreamRng) -> Vec<f32> {
        self.inner.init_params(rng)
    }

    fn loss(&self, params: &[f32], batch: &Dataset) -> f64 {
        self.timed(Call::Loss, batch.len(), || self.inner.loss(params, batch))
    }

    fn loss_grad_ws(
        &self,
        params: &[f32],
        batch: &Dataset,
        grad: &mut [f32],
        ws: &mut Workspace,
    ) -> f64 {
        self.timed(Call::LossGrad, batch.len(), || {
            self.inner.loss_grad_ws(params, batch, grad, ws)
        })
    }

    fn predict(&self, params: &[f32], x: &Matrix) -> Vec<usize> {
        self.timed(Call::Predict, x.rows(), || self.inner.predict(params, x))
    }
}

/// Arrival time of one round-boundary event.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Event kind tag (`round_start`, `phase1_done`, `dual_update`,
    /// `eval`, `round_end`).
    pub kind: &'static str,
    /// Round the event belongs to.
    pub round: usize,
    /// Arrival, ns on [`now_ns`]'s clock.
    pub at: u64,
}

/// Payload facts the report reads from the stream; none of them is a
/// time.
#[derive(Debug, Default, Clone)]
pub struct StreamFacts {
    /// Events received, sequenced or not.
    pub events: u64,
    /// Σ distinct sampled edges over the Phase-1 samples (the multiplier
    /// of the closed-form cloud bill).
    pub phase1_distinct: u64,
    /// Σ surviving clients over all client→edge block aggregations.
    pub block_survivors: u64,
    /// `sim_s` of the `run_end` event.
    pub sim_s: f64,
}

/// Telemetry sink that stamps the arrival of the round-boundary events
/// and forwards everything to an optional inner sink.
///
/// Only round-boundary events are stamped: block-level events are
/// replayed after each round's join, so their arrival times carry no
/// information.
#[derive(Debug)]
pub struct StampSink {
    inner: Option<Arc<dyn Sink>>,
    stamps: Mutex<Vec<Stamp>>,
    facts: Mutex<StreamFacts>,
}

impl StampSink {
    /// A stamping sink forwarding to `inner` (if any).
    pub fn new(inner: Option<Arc<dyn Sink>>) -> Self {
        Self {
            inner,
            stamps: Mutex::new(Vec::new()),
            facts: Mutex::new(StreamFacts::default()),
        }
    }

    /// Take the stamps and stream facts collected so far.
    pub fn take(&self) -> (Vec<Stamp>, StreamFacts) {
        let stamps = std::mem::take(&mut *self.stamps.lock().expect("stamps poisoned"));
        let facts = std::mem::take(&mut *self.facts.lock().expect("facts poisoned"));
        (stamps, facts)
    }
}

impl Sink for StampSink {
    fn emit(&self, event: &TelemetryEvent) {
        let at = now_ns();
        let boundary = match event {
            TelemetryEvent::RoundStart { round }
            | TelemetryEvent::Phase1Done { round, .. }
            | TelemetryEvent::DualUpdate { round, .. }
            | TelemetryEvent::Eval { round, .. }
            | TelemetryEvent::RoundEnd { round, .. } => Some(*round),
            _ => None,
        };
        if let Some(round) = boundary {
            self.stamps.lock().expect("stamps poisoned").push(Stamp {
                kind: event.kind(),
                round,
                at,
            });
        }
        {
            let mut f = self.facts.lock().expect("facts poisoned");
            f.events += 1;
            match event {
                TelemetryEvent::Phase1Sampled { edges, .. } => {
                    let mut d = edges.clone();
                    d.sort_unstable();
                    d.dedup();
                    f.phase1_distinct += d.len() as u64;
                }
                TelemetryEvent::BlockAggregated { survivors, .. } => {
                    f.block_survivors += *survivors as u64;
                }
                TelemetryEvent::RunEnd { sim_s, .. } => f.sim_s = *sim_s,
                _ => {}
            }
        }
        if let Some(inner) = &self.inner {
            inner.emit(event);
        }
    }

    fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.flush();
        }
    }
}

/// Timing decorator around another sink: counts the time spent inside
/// the inner sink's `emit`.
#[derive(Debug)]
pub struct TimedSink {
    inner: Arc<dyn Sink>,
    busy_ns: AtomicU64,
}

impl TimedSink {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Sink>) -> Self {
        Self {
            inner,
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Seconds spent in the inner sink's `emit` so far.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl Sink for TimedSink {
    fn emit(&self, event: &TelemetryEvent) {
        let t0 = now_ns();
        self.inner.emit(event);
        self.busy_ns.fetch_add(now_ns() - t0, Ordering::Relaxed);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
