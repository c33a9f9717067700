//! End-to-end benchmark of HierMinimax training runs.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Drives `hm-core`'s public `Algorithm::try_run` on generated `hm-data`
//! problems. `--trace 0` measures the end-to-end metrics; `--trace 1`
//! measures the per-layer metrics from outside the crates (a `Model`
//! decorator, a timestamping telemetry sink, and direct kernel calls) and
//! checks that the traced runs return the same bits as untraced ones.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. METRICS.md describes
//! every metric.

mod flops;
mod kernels;
mod probe;
mod stats;
mod workload;

use hm_core::algorithms::{Algorithm, HierMinimax};
use hm_core::{FederatedProblem, RunResult};
use hm_nn::Model;
use hm_simnet::Link;
use hm_telemetry::{JsonlSink, Sink, Telemetry};
use probe::{now_ns, Call, Span, Stamp, StampSink, StreamFacts, TimedModel, TimedSink};
use stats::{mean, median};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Warm-up rounds at the end of each set-up.
const WARMUP_ROUNDS: usize = 10;
/// Traced/untraced pairs at least, in a traced run.
const MIN_PAIRS: usize = 2;
/// Time budget of each direct kernel measurement.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);
/// Largest allowed `p` infeasibility.
const P_TOL: f64 = 1e-4;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let num = |v: Option<String>, flag: &str| -> Result<f64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = num(get("--seed"), "--seed")?;
    let seconds = num(get("--seconds"), "--seconds")?;
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let whole = seed >= 0.0 && seed.fract() == 0.0;
    if !whole || seconds.is_nan() || seconds <= 0.0 {
        return Err("--seed must be a whole number ≥ 0 and --seconds positive".into());
    }
    Ok(Args {
        workload,
        seed: seed as u64,
        seconds,
        trace,
        out: PathBuf::from(get("--out").unwrap_or_else(|| ".bench_out".into())),
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs attempted and the output checks they failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count one run and the checks it failed.
    fn record(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                self.note(what, f);
            }
        }
    }

    /// Fail the run counted last on a check that compares it with
    /// another run (prefix, repeat, target).
    fn flag(&mut self, what: &str, failure: String) {
        self.failed = (self.failed + 1).min(self.attempted);
        self.note(what, failure);
    }

    fn note(&mut self, what: &str, failure: String) {
        eprintln!("check failed: {what}: {failure}");
        self.problems.push(format!("{what}: {failure}"));
    }
}

/// The training run seed of panel entry `i` under benchmark seed `seed`
/// (hashed, so neighbouring entries share no structure).
fn run_seed(seed: u64, i: usize) -> u64 {
    let mut s = (seed << 16) ^ i as u64;
    hm_data::rng::splitmix64(&mut s)
}

/// Rounds until the first scheduled eval with worst-edge accuracy at or
/// above `target`.
fn rounds_to(r: &RunResult, target: f64) -> Option<usize> {
    r.history
        .rounds
        .iter()
        .find(|rec| rec.eval.as_ref().is_some_and(|e| e.worst >= target))
        .map(|rec| rec.round + 1)
}

/// Fingerprint of a run's trained bits and final evaluation.
fn fingerprint(r: &RunResult) -> u64 {
    let mut h = DefaultHasher::new();
    for x in r.final_w.iter().chain(&r.final_p) {
        x.to_bits().hash(&mut h);
    }
    if let Some(e) = r.history.final_eval() {
        e.worst.to_bits().hash(&mut h);
        e.average.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Output checks every run must pass.
fn check_run(
    w: &Workload,
    problem: &FederatedProblem,
    r: &RunResult,
    rounds: usize,
    facts: Option<&StreamFacts>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let dom = &problem.p_domain;
    let worst_p = r
        .history
        .rounds
        .iter()
        .map(|rec| dom.feasibility_violation(&rec.p))
        .fold(dom.feasibility_violation(&r.final_p), f64::max);
    if worst_p.is_nan() || worst_p > P_TOL {
        bad.push(format!("p left P by {worst_p:e}"));
    }
    if r.comm.cloud_rounds() != rounds as u64 {
        bad.push(format!(
            "{} cloud rounds for {rounds} rounds",
            r.comm.cloud_rounds()
        ));
    }
    if r.history.final_eval().is_none() {
        bad.push("no final evaluation".into());
    }
    if w.fault_free() {
        // Per round: Phase 1 sends (d+2) floats down to and 2d up from each
        // distinct sampled edge D_k; Phase 2 sends d down to and 1 up from
        // each of the m_E uniformly sampled edges.
        let (d, k, m) = (
            problem.num_params() as u64,
            rounds as u64,
            w.m_edges() as u64,
        );
        let c = &r.comm;
        let up_msgs = c.uplink_msgs(Link::EdgeCloud);
        let distinct = up_msgs.saturating_sub(m * k);
        let want = [
            (c.uplink_floats(Link::EdgeCloud), 2 * d * distinct + m * k),
            (
                c.downlink_floats(Link::EdgeCloud),
                (d + 2) * distinct + d * m * k,
            ),
            (c.downlink_msgs(Link::EdgeCloud), distinct + m * k),
            (
                c.uplink_floats(Link::ClientCloud) + c.downlink_floats(Link::ClientCloud),
                0,
            ),
        ];
        if !(k..=m * k).contains(&distinct) || want.iter().any(|&(got, exp)| got != exp) {
            bad.push(format!(
                "cloud bill off the closed form (Σ distinct edges {distinct}): {want:?}"
            ));
        }
        if let Some(f) = facts {
            if f.phase1_distinct != distinct {
                bad.push(format!(
                    "meter counts {distinct} distinct Phase-1 edges, the event log {}",
                    f.phase1_distinct
                ));
            }
        }
    }
    bad
}

/// Differences between an untraced and a traced run's results.
fn inertness(a: &RunResult, b: &RunResult) -> Vec<String> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let evals = |r: &RunResult| format!("{:?}", r.history.accuracy_series());
    let mut bad = Vec::new();
    for (what, same) in [
        ("final_w", bits(&a.final_w) == bits(&b.final_w)),
        ("final_p", bits(&a.final_p) == bits(&b.final_p)),
        ("comm", a.comm == b.comm),
        (
            "faults",
            format!("{:?}", a.faults) == format!("{:?}", b.faults),
        ),
        ("quarantine", a.quarantine == b.quarantine),
        ("churn", a.churn == b.churn),
        ("history", evals(a) == evals(b)),
    ] {
        if !same {
            bad.push(format!("traced run differs in {what}"));
        }
    }
    bad
}

/// Per-invocation state: the problem and the working directory the
/// workload's snapshots and event log go to.
struct Bench {
    w: &'static Workload,
    problem: FederatedProblem,
    work: PathBuf,
    tally: Tally,
}

impl Bench {
    fn ckpt_dir(&self) -> PathBuf {
        self.work.join("ckpt")
    }

    fn events_path(&self) -> PathBuf {
        self.work.join("events.jsonl")
    }

    /// The telemetry handle of an untraced run: the workload's JSONL log
    /// when it keeps one, otherwise off.
    fn untraced_telemetry(&self) -> Telemetry {
        if self.w.writes_to_disk() {
            Telemetry::jsonl(self.events_path()).expect("open the event log")
        } else {
            Telemetry::disabled()
        }
    }

    /// One training run; returns the result and its wall seconds.
    fn run(
        &self,
        problem: &FederatedProblem,
        rounds: usize,
        seed: u64,
        telemetry: Telemetry,
    ) -> Result<(RunResult, f64), String> {
        let dir = self.ckpt_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let algo = HierMinimax::new(self.w.config(rounds, telemetry, &dir));
        let t0 = Instant::now();
        let r = algo.try_run(problem, seed).map_err(|e| e.to_string())?;
        Ok((r, t0.elapsed().as_secs_f64()))
    }

    /// A checked untraced run. `None` when the run aborted.
    fn checked_run(&mut self, what: &str, rounds: usize, seed: u64) -> Option<(RunResult, f64)> {
        match self.run(&self.problem, rounds, seed, self.untraced_telemetry()) {
            Ok((r, wall)) => {
                let bad = check_run(self.w, &self.problem, &r, rounds, None);
                self.tally.record(what, bad);
                Some((r, wall))
            }
            Err(e) => {
                self.tally.record(what, vec![format!("run aborted: {e}")]);
                None
            }
        }
    }
}

/// Timings and size of the set-ups.
struct Setup {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    train_mb: f64,
}

/// Scenario generation + problem build + warm-up, `times` times; returns
/// the last problem built and the timings.
fn set_up(
    w: &'static Workload,
    work: &Path,
    times: usize,
) -> Result<(FederatedProblem, Setup), String> {
    let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
    let mut built = None;
    for i in 0..times {
        let t0 = Instant::now();
        let scenario = w.scenario();
        generate_s.push(t0.elapsed().as_secs_f64());
        let problem = w.problem(&scenario);
        let warm = Bench {
            w,
            problem,
            work: work.to_path_buf(),
            tally: Tally::default(),
        };
        warm.run(
            &warm.problem,
            WARMUP_ROUNDS,
            run_seed(u64::MAX, i),
            warm.untraced_telemetry(),
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(warm.problem);
    }
    let problem = built.ok_or("no set-up ran")?;
    let train_floats: usize = problem
        .scenario
        .edges
        .iter()
        .flat_map(|e| &e.client_train)
        .map(|d| d.x.len())
        .sum();
    let train_mb = (train_floats * 4) as f64 / (1 << 20) as f64;
    Ok((
        problem,
        Setup {
            setup_s,
            generate_s,
            train_mb,
        },
    ))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Same evaluation at the same round in two runs of one seed.
fn same_eval(a: &RunResult, b: &RunResult, round: usize) -> bool {
    let at = |r: &RunResult| {
        let e = r.history.rounds.get(round)?.eval.as_ref()?;
        Some((e.worst.to_bits(), e.average.to_bits()))
    };
    at(a).is_some() && at(a) == at(b)
}

/// Find a panel entry's rounds to target and time the run that stops
/// there. Tries `first_guess` rounds, doubling up to `max_rounds`; every
/// longer run must repeat the shorter one's last evaluation (a run of R
/// rounds is a prefix of a longer run). When the target falls before the
/// end of the run that found it, the run is repeated cut at the target.
/// Returns `(rounds_to_target, wall seconds of the cut run)`.
fn search_target(bench: &mut Bench, seed: u64) -> Option<(usize, f64)> {
    let w = bench.w;
    let mut len = w.first_guess.min(w.max_rounds);
    let mut shorter: Option<RunResult> = None;
    loop {
        let (r, wall) = bench.checked_run("target search run", len, seed)?;
        if let Some(prev) = &shorter {
            let last = prev.history.rounds.len() - 1;
            if !same_eval(prev, &r, last) {
                bench.tally.flag(
                    "prefix",
                    format!("seed {seed}: the {len}-round run is not a prefix extension"),
                );
            }
        }
        match rounds_to(&r, w.target) {
            Some(k) if k == len => return Some((k, wall)),
            Some(k) => {
                let (cut, wall) = bench.checked_run("run to target", k, seed)?;
                if !same_eval(&r, &cut, k - 1) || rounds_to(&cut, w.target) != Some(k) {
                    bench.tally.flag(
                        "prefix",
                        format!("seed {seed}: the run cut at {k} rounds differs"),
                    );
                }
                return Some((k, wall));
            }
            None if len >= w.max_rounds => {
                bench.tally.flag(
                    "target",
                    format!(
                        "seed {seed} never reached worst accuracy {} in {len} rounds",
                        w.target
                    ),
                );
                return None;
            }
            None => {
                shorter = Some(r);
                len = (2 * len).min(w.max_rounds);
            }
        }
    }
}

/// The fixed-length runs of an untraced benchmark run: the first
/// `finals` panel entries once each, then repeats of them.
#[derive(Default)]
struct FixedRuns {
    done: usize,
    prints: Vec<Option<u64>>,
    rps: Vec<f64>,
    worst: Vec<f64>,
    avg: Vec<f64>,
}

impl FixedRuns {
    /// Run the next fixed-length run. A first run records the final
    /// accuracies and must pass the target where the search found it
    /// (`found`); a repeat must reproduce the first run's bits.
    fn next(&mut self, bench: &mut Bench, bench_seed: u64, found: &[Option<usize>]) {
        let w = bench.w;
        let (i, first) = (self.done % w.finals, self.done < w.finals);
        self.done += 1;
        let seed = run_seed(bench_seed, i);
        let run = bench.checked_run("fixed-length run", w.rounds, seed);
        let print = run.as_ref().map(|(r, _)| fingerprint(r));
        if first {
            self.prints.push(print);
        } else if self.prints[i].is_some() && print.is_some() && self.prints[i] != print {
            bench.tally.flag(
                "repeat",
                format!("seed {seed}: a repeat differs from the first run"),
            );
        }
        let Some((r, wall)) = run else {
            return;
        };
        self.rps.push(w.rounds as f64 / wall);
        if !first {
            return;
        }
        if let Some(fin) = r.history.final_eval() {
            self.worst.push(fin.worst);
            self.avg.push(fin.average);
        }
        let k = rounds_to(&r, w.target);
        if k.is_some() && k != found[i] {
            bench.tally.flag(
                "repeat",
                format!(
                    "seed {seed}: {k:?} rounds to target here, {:?} in the search",
                    found[i]
                ),
            );
        }
    }
}

/// End-to-end metrics (`--trace 0`).
///
/// The fixed-length runs are spread evenly between the panel's target
/// searches, and repeats fill the rest of the time budget, so the
/// throughput samples cover the whole run rather than one stretch of it.
fn untraced(args: &Args, bench: &mut Bench, setup_s: &[f64]) -> Vec<Metric> {
    let w = bench.w;
    let t0 = Instant::now();
    // Rounds to target, and seconds per round of the run that stops there.
    let (mut rtt, mut s_per_round) = (Vec::new(), Vec::new());
    let mut found: Vec<Option<usize>> = Vec::new();
    let mut fixed = FixedRuns::default();
    for i in 0..w.panel {
        let hit = search_target(bench, run_seed(args.seed, i));
        if let Some((k, wall)) = hit {
            rtt.push(k as f64);
            s_per_round.push(wall / k as f64);
        }
        found.push(hit.map(|(k, _)| k));
        while fixed.done < (i + 1) * w.finals / w.panel {
            fixed.next(bench, args.seed, &found);
        }
    }
    while fixed.done < w.finals || t0.elapsed().as_secs_f64() < args.seconds {
        fixed.next(bench, args.seed, &found);
    }
    eprintln!("rounds to target: {rtt:?}");
    eprintln!("final worst accuracy: {:.4?}", fixed.worst);
    eprintln!("rounds/s samples: {:.1?}", fixed.rps);
    vec![
        m("setup_s", median(setup_s), "s"),
        m("rounds_per_s", median(&fixed.rps), "rounds/s"),
        // Mean rounds to target at the median pace of the runs to target:
        // the panel's expected wall time to target, robust to a run that
        // another process on the machine happened to slow down.
        m("time_to_target_s", mean(&rtt) * median(&s_per_round), "s"),
        m("rounds_to_target", mean(&rtt), "rounds"),
        m("worst_acc", mean(&fixed.worst), "fraction"),
        m("avg_acc", mean(&fixed.avg), "fraction"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Layer timings of one traced run.
#[derive(Default)]
struct LayerRun {
    calls: [f64; 3],
    busy_s: [f64; 3],
    loss_grad_flops: f64,
    round_ms: Vec<f64>,
    phase1_s: f64,
    phase2_s: f64,
    eval_s: f64,
    self_s: f64,
    efficiency: f64,
}

/// Fold one traced run's spans and event stamps into layer timings.
fn analyse(
    w: &Workload,
    spans: &[Span],
    stamps: &[Stamp],
    run_end: u64,
    threads: usize,
) -> LayerRun {
    let mut out = LayerRun::default();
    let widths = w.widths();
    for s in spans {
        let i = s.call as usize;
        out.calls[i] += 1.0;
        out.busy_s[i] += (s.end - s.start) as f64 * 1e-9;
        if s.call == Call::LossGrad {
            out.loss_grad_flops += flops::loss_grad_flops(&widths, s.rows as usize) as f64;
        }
    }
    let at = |kind: &str| -> std::collections::BTreeMap<usize, u64> {
        stamps
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| (s.round, s.at))
            .collect()
    };
    let (starts, p1, dual, ends, evals) = (
        at("round_start"),
        at("phase1_done"),
        at("dual_update"),
        at("round_end"),
        at("eval"),
    );
    let secs = |a: u64, b: u64| b.saturating_sub(a) as f64 * 1e-9;
    let bounds: Vec<u64> = starts.values().copied().chain([run_end]).collect();
    out.round_ms = bounds.windows(2).map(|b| secs(b[0], b[1]) * 1e3).collect();
    for (k, &s) in &starts {
        let (Some(&a), Some(&b)) = (p1.get(k), dual.get(k)) else {
            continue;
        };
        out.phase1_s += secs(s, a);
        out.phase2_s += secs(a, b);
    }
    for (k, &e) in &evals {
        if let Some(&end) = ends.get(k) {
            out.eval_s += secs(end, e);
        }
    }
    let first = bounds[0];
    let busy: Vec<(u64, u64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    out.self_s = stats::self_time((first, run_end), &busy) as f64 * 1e-9;
    let wall = secs(first, run_end);
    out.efficiency = out.busy_s.iter().sum::<f64>() / (wall * threads as f64);
    out
}

/// Snapshot statistics of the workload's own checkpoint directory, or of
/// one snapshot of the final state when the workload writes none.
struct CkptStats {
    snapshots: f64,
    bytes: f64,
    write_ms: f64,
    read_ms: f64,
}

fn checkpoint_stats(bench: &Bench, r: &RunResult, seed: u64) -> Result<CkptStats, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(bench.ckpt_dir())
        .map(|d| d.filter_map(|e| Some(e.ok()?.path())).collect())
        .unwrap_or_default();
    files.sort();
    let bytes: u64 = files
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|md| md.len())
        .sum();
    let snap = match files.last() {
        Some(p) => hm_checkpoint::read_snapshot(p).map_err(|e| e.to_string())?,
        None => hm_checkpoint::Snapshot {
            algorithm: "HierMinimax".into(),
            seed,
            total_rounds: bench.w.rounds as u64,
            next_round: bench.w.rounds as u64,
            w: r.final_w.clone(),
            p: r.final_p.clone(),
            avg_w_sum: r.avg_w.iter().map(|&x| f64::from(x)).collect(),
            avg_w_count: bench.w.rounds as u64,
            avg_p_sum: r.avg_p.iter().map(|&x| f64::from(x)).collect(),
            avg_p_count: bench.w.rounds as u64,
            comm: r.comm,
            faults: r.faults,
            telemetry_seq: 0,
            rng_cursors: hm_checkpoint::rng_cursors_for(seed, bench.w.rounds as u64),
            extras: Vec::new(),
        },
    };
    let (write_ms, read_ms) = kernels::snapshot_io_ms(&snap, &bench.work.join("io.hmck"), 5)
        .map_err(|e| e.to_string())?;
    Ok(CkptStats {
        snapshots: files.len() as f64,
        bytes: bytes as f64,
        write_ms,
        read_ms,
    })
}

/// Per-layer metrics (`--trace 1`).
fn traced(args: &Args, bench: &mut Bench, setup: &Setup, calib: f64) -> Vec<Metric> {
    let w = bench.w;
    let threads = rayon::current_num_threads();
    let timed = Arc::new(TimedModel::new(Arc::clone(&bench.problem.model)));
    let traced_problem = FederatedProblem {
        model: Arc::clone(&timed) as Arc<dyn Model>,
        ..bench.problem.clone()
    };
    let t0 = Instant::now();
    let (mut rps_plain, mut rps_traced, mut runs) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut tel_bytes, mut emit_s, mut sim_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut cloud_floats, mut msgs, mut retries, mut delivered, mut attempted) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut dump: Option<(Vec<Span>, Vec<Stamp>)> = None;
    let mut ckpt: Option<CkptStats> = None;
    let mut i = 0;
    while i < MIN_PAIRS || (i < w.panel && t0.elapsed().as_secs_f64() < args.seconds) {
        let seed = run_seed(args.seed, i);
        i += 1;
        let Some((plain, wall)) = bench.checked_run("untraced run", w.rounds, seed) else {
            continue;
        };
        rps_plain.push(w.rounds as f64 / wall);

        let jsonl = w.writes_to_disk().then(|| {
            Arc::new(TimedSink::new(Arc::new(
                JsonlSink::create(bench.events_path()).expect("open the event log"),
            )))
        });
        let stamp = Arc::new(StampSink::new(jsonl.clone().map(|s| s as Arc<dyn Sink>)));
        let tel = Telemetry::with_sink(Arc::clone(&stamp) as Arc<dyn Sink>);
        timed.take_spans();
        let outcome = bench.run(&traced_problem, w.rounds, seed, tel);
        let run_end = now_ns();
        let (r, wall) = match outcome {
            Ok(x) => x,
            Err(e) => {
                bench
                    .tally
                    .record("traced run", vec![format!("run aborted: {e}")]);
                continue;
            }
        };
        let spans = timed.take_spans();
        let (stamps, facts) = stamp.take();
        let mut bad = check_run(w, &traced_problem, &r, w.rounds, Some(&facts));
        bad.extend(inertness(&plain, &r));
        bench.tally.record("traced run", bad);
        rps_traced.push(w.rounds as f64 / wall);
        runs.push(analyse(w, &spans, &stamps, run_end, threads));

        events += facts.events as f64;
        sim_s += facts.sim_s;
        if let Some(s) = &jsonl {
            s.flush();
            emit_s += s.busy_s();
            tel_bytes += std::fs::metadata(bench.events_path()).map_or(0, |md| md.len()) as f64;
        }
        cloud_floats += r.comm.cloud_floats() as f64;
        msgs += Link::all()
            .iter()
            .map(|&l| r.comm.uplink_msgs(l) + r.comm.downlink_msgs(l))
            .sum::<u64>() as f64;
        retries += r.faults.retries as f64;
        delivered += facts.block_survivors as f64;
        attempted += (facts.block_survivors + r.faults.crashes + r.faults.deadline_missed) as f64;
        if ckpt.is_none() {
            match checkpoint_stats(bench, &r, seed) {
                Ok(c) => ckpt = Some(c),
                Err(e) => bench.tally.flag("checkpoint io", e),
            }
        }
        if dump.is_none() {
            dump = Some((spans, stamps));
        }
    }
    let n = runs.len().max(1) as f64;
    let per_run = |f: &dyn Fn(&LayerRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let lg_busy = per_run(&|r| r.busy_s[0]);
    let round_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    let (tail_pct, tail) = stats::tail_percentile(&round_ms, 99).unwrap_or((100, f64::NAN));

    // Direct kernel calls at the workload's shapes, on real training rows.
    let widths = w.widths();
    let client0 = bench.problem.client_data(0, 0);
    let rows: Vec<usize> = (0..w.batch_size().min(client0.len())).collect();
    let x = client0.x.select_rows(&rows);
    let matmul = kernels::matmul_step_gflops(&widths, &x, KERNEL_BUDGET);
    let peak = kernels::peak_gflops(KERNEL_BUDGET);
    let survivors = bench.problem.clients_per_edge();
    let agg = kernels::aggregate_gbps(
        w.aggregator(),
        survivors,
        bench.problem.num_params(),
        KERNEL_BUDGET,
    );
    let ck = ckpt.unwrap_or(CkptStats {
        snapshots: f64::NAN,
        bytes: f64::NAN,
        write_ms: f64::NAN,
        read_ms: f64::NAN,
    });
    if let Some((spans, stamps)) = &dump {
        write_dump(args, spans, stamps);
    }
    let fail_ratio = bench.tally.failed as f64 / bench.tally.attempted.max(1) as f64;
    vec![
        m("nn.loss_grad.calls", per_run(&|r| r.calls[0]), "count"),
        m("nn.loss_grad.busy_s", lg_busy, "s"),
        m(
            "nn.loss_grad.gflops",
            per_run(&|r| r.loss_grad_flops) * 1e-9 / lg_busy,
            "GFLOP/s",
        ),
        m("nn.loss.calls", per_run(&|r| r.calls[1]), "count"),
        m("nn.loss.busy_s", per_run(&|r| r.busy_s[1]), "s"),
        m("nn.predict.calls", per_run(&|r| r.calls[2]), "count"),
        m("nn.predict.busy_s", per_run(&|r| r.busy_s[2]), "s"),
        m("tensor.matmul.gflops", matmul, "GFLOP/s"),
        m("tensor.peak.gflops", peak, "GFLOP/s"),
        m("tensor.matmul.peak_frac", matmul / peak, "fraction"),
        m("tensor.aggregate.gbps", agg, "GB/s"),
        m("core.round_ms.p50", median(&round_ms), "ms"),
        m("core.round_ms.p99", tail, "ms"),
        m("core.round_ms.tail_pct", f64::from(tail_pct), "percentile"),
        m("core.round_ms.samples", round_ms.len() as f64, "count"),
        m("core.phase1.wall_s", per_run(&|r| r.phase1_s), "s"),
        m("core.phase2.wall_s", per_run(&|r| r.phase2_s), "s"),
        m("core.eval.wall_s", per_run(&|r| r.eval_s), "s"),
        m("core.self_s", per_run(&|r| r.self_s), "s"),
        m(
            "core.parallel_efficiency",
            per_run(&|r| r.efficiency),
            "fraction",
        ),
        m("simnet.cloud_floats", cloud_floats / n, "floats"),
        m("simnet.total_msgs", msgs / n, "msgs"),
        m("simnet.sim_s", sim_s / n, "s"),
        m("simnet.retries", retries / n, "count"),
        m(
            "simnet.delivery_ratio",
            delivered / attempted.max(1.0),
            "ratio",
        ),
        m("checkpoint.snapshots", ck.snapshots, "count"),
        m("checkpoint.bytes", ck.bytes, "bytes"),
        m("checkpoint.write_ms", ck.write_ms, "ms"),
        m("checkpoint.read_ms", ck.read_ms, "ms"),
        m("telemetry.events", events / n, "count"),
        m("telemetry.bytes", tel_bytes / n, "bytes"),
        m("telemetry.emit_busy_s", emit_s / n, "s"),
        m("data.generate_s", median(&setup.generate_s), "s"),
        m("data.train_mb", setup.train_mb, "MiB"),
        m(
            "trace.overhead_frac",
            1.0 - median(&rps_traced) / median(&rps_plain),
            "fraction",
        ),
        m("calib.gflops", calib, "GFLOP/s"),
        m("run_fail_ratio", fail_ratio, "ratio"),
    ]
}

/// Write the first traced run's spans and event stamps (CSV). Each span
/// carries the round it started in (empty before the first round).
fn write_dump(args: &Args, spans: &[Span], stamps: &[Stamp]) {
    let stem = format!("{}-seed{}", args.workload.name, args.seed);
    let starts: Vec<(u64, usize)> = stamps
        .iter()
        .filter(|s| s.kind == "round_start")
        .map(|s| (s.at, s.round))
        .collect();
    let mut csv = String::from("call,thread,start_ns,end_ns,rows,round\n");
    for s in spans {
        let round = match starts.partition_point(|&(at, _)| at <= s.start) {
            0 => String::new(),
            i => starts[i - 1].1.to_string(),
        };
        csv.push_str(&format!(
            "{},{},{},{},{},{round}\n",
            s.call.as_str(),
            s.thread,
            s.start,
            s.end,
            s.rows
        ));
    }
    let mut ev = String::from("event,round,at_ns\n");
    for s in stamps {
        ev.push_str(&format!("{},{},{}\n", s.kind, s.round, s.at));
    }
    for (name, body) in [("spans", csv), ("stamps", ev)] {
        let path = args.out.join(format!("{name}-{stem}.csv"));
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn json_line(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let work = args.out.join(format!(
        "work-{}-{}-{}",
        w.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let calib = kernels::calib_gflops(Duration::from_millis(200));
    let (problem, setup) = match set_up(w, &work, if args.trace { 3 } else { SETUPS }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    let mut bench = Bench {
        w,
        problem,
        work: work.clone(),
        tally: Tally::default(),
    };
    let mut metrics = if args.trace {
        traced(&args, &mut bench, &setup, calib)
    } else {
        untraced(&args, &mut bench, &setup.setup_s)
    };
    let _ = std::fs::remove_dir_all(&work);
    for x in &mut metrics {
        if !x.value.is_finite() {
            bench
                .tally
                .problems
                .push(format!("{} is not a finite number", x.name));
            x.value = 0.0;
        }
    }

    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rev\": \"{rev}\", \"nproc\": {nproc}, \
         \"pool_threads\": {}, \"calib_gflops\": {calib}, \"run_fail_ratio\": {}}}",
        w.name,
        args.seed,
        u8::from(args.trace),
        rayon::current_num_threads(),
        bench.tally.failed as f64 / bench.tally.attempted.max(1) as f64,
    );
    println!("# {meta}");
    for x in &metrics {
        println!("{:<28} {:>16.6} {}", x.name, x.value, x.unit);
    }
    for p in &bench.tally.problems {
        println!("! {p}");
    }
    let line = json_line(&bench.tally, &metrics);
    let record = format!("{{\"meta\": {meta}, \"result\": {line}}}\n");
    let path = args.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    println!("{line}");
}
