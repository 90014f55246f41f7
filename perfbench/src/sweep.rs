//! The `sweep_mix` workload: every registered scenario × {`splitck`,
//! `aosoa_splitck`} through a `JobQueue` with two runners, driven by two
//! closed-loop clients (each submits its next job only after the last one
//! settled, so exactly two jobs are in flight).

use crate::host::peak_rss_mib;
use crate::report::{Metrics, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use aderdg_core::scenario::{RunControl, RunRequest};
use aderdg_core::{JobQueue, JobStatus, ScenarioRegistry};
use aderdg_tensor::Lcg;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Kernels every scenario is swept with.
pub const KERNELS: [&str; 2] = ["splitck", "aosoa_splitck"];

/// Clients (and queue runners) — the jobs in flight.
pub const CLIENTS: usize = 2;

/// Fraction of each scenario's registered `t_end` a sweep job runs: a
/// handful of steps, so set-up, tuning and the drive diagnostics weigh
/// as much as stepping.
pub const T_END_FRACTION: f64 = 1.0 / 160.0;

/// One sweep configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Scenario registry key.
    pub scenario: &'static str,
    /// Kernel registry key.
    pub kernel: &'static str,
    /// The request (kernel and short `t_end`, or a smoke request).
    pub req: RunRequest,
}

/// Every registered scenario × [`KERNELS`], at default meshes with a
/// short `t_end` — or as smoke runs for the toy self-check.
pub fn job_specs(toy: bool) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for scenario in ScenarioRegistry::global().scenarios() {
        let info = scenario.info();
        for kernel in KERNELS {
            let mut req = if toy {
                RunRequest::smoke()
            } else {
                RunRequest {
                    t_end: Some(info.t_end * T_END_FRACTION),
                    ..RunRequest::new()
                }
            };
            req.kernel = Some(kernel.to_string());
            specs.push(JobSpec {
                scenario: info.name,
                kernel,
                req,
            });
        }
    }
    specs
}

/// The seeded visiting order of round `round`: a Fisher–Yates shuffle
/// of every configuration, so each round runs the same multiset of jobs.
pub fn round_order(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut rng = Lcg::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize(0, i + 1));
    }
    order
}

/// One settled job.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// Index into the configuration list.
    pub spec: usize,
    /// Seconds from `submit` to settled.
    pub latency_s: f64,
    /// Cells × steps the job advanced.
    pub cell_updates: f64,
}

/// Set-up-only passes over every configuration (the per-configuration
/// median of these is its set-up latency).
pub const SETUP_PASSES: u64 = 5;

/// Runs `order` through `queue` with [`CLIENTS`] closed-loop clients;
/// `setup_only` jobs pause at step 0, so they cover exactly the
/// scenario's set-up. Returns the settled jobs and the batch's wall time.
pub fn run_batch(
    queue: &JobQueue,
    specs: &[JobSpec],
    order: &[usize],
    setup_only: bool,
    tr: &Tracer,
    outcome: &Mutex<Outcome>,
) -> (Vec<JobResult>, f64) {
    let next = AtomicUsize::new(0);
    let results = Mutex::new(Vec::with_capacity(order.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                // ORDERING: Relaxed — a work counter that publishes no
                // other data; each index is claimed exactly once.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec_idx) = order.get(i) else {
                    break;
                };
                let spec = &specs[spec_idx];
                let mut req = spec.req.clone();
                if setup_only {
                    let control = RunControl::new();
                    control.pause_at_step(0);
                    req.control = Some(Arc::new(control));
                }
                let result = tr.span("job", None, |jid| {
                    let t0 = Instant::now();
                    let job = tr.span("jobs.submit", jid, |_| queue.submit(spec.scenario, req));
                    let status = job
                        .as_ref()
                        .map(|j| tr.span("jobs.wait", jid, |_| j.wait()))
                        .map_err(|e| e.to_string());
                    (job, status, t0.elapsed().as_secs_f64())
                });
                let (job, status, latency_s) = result;
                let expected = if setup_only {
                    JobStatus::Paused
                } else {
                    JobStatus::Done
                };
                let summary = job.as_ref().ok().and_then(|j| j.summary());
                let finite = summary.as_ref().is_some_and(|s| {
                    s.l2_norm.is_finite() && s.integrals_final.iter().all(|v| v.is_finite())
                });
                let ok = matches!(status, Ok(s) if s == expected) && finite;
                let cell_updates = summary
                    .as_ref()
                    .map_or(0.0, |s| (s.num_cells * s.steps) as f64);
                outcome
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .check(ok, || {
                        let err = match &job {
                            Ok(j) => j.error().unwrap_or_default(),
                            Err(e) => e.to_string(),
                        };
                        format!(
                            "sweep job {}/{}: {:?} (expected {expected:?}, finite norms: \
                             {finite}) {err}",
                            spec.scenario, spec.kernel, status
                        )
                    });
                results
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(JobResult {
                        spec: spec_idx,
                        latency_s,
                        cell_updates,
                    });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (
        results.into_inner().unwrap_or_else(PoisonError::into_inner),
        wall,
    )
}

/// Everything one sweep run measured.
#[derive(Debug, Clone, Default)]
pub struct SweepRun {
    /// Set-up-only job latencies ([`SETUP_PASSES`] passes over every
    /// configuration).
    pub setup: Vec<JobResult>,
    /// Full jobs of the timed rounds.
    pub jobs: Vec<JobResult>,
    /// Wall seconds of each timed round.
    pub rounds_s: Vec<f64>,
    /// Number of configurations.
    pub specs: usize,
}

/// One warm-up round, [`SETUP_PASSES`] set-up-only passes in fixed
/// orders, then seeded full rounds until `seconds` have passed and at
/// least `min_rounds` are done — all through one queue, whose runner
/// threads live for the run.
pub fn run(
    specs: &[JobSpec],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    tr: &Tracer,
    outcome: &mut Outcome,
) -> SweepRun {
    let queue = JobQueue::new(CLIENTS);
    let tally = Mutex::new(Outcome::default());
    let all: Vec<usize> = (0..specs.len()).collect();
    run_batch(&queue, specs, &all, false, &Tracer::new(false), &tally);
    let mut out = SweepRun {
        specs: specs.len(),
        ..SweepRun::default()
    };
    // The set-up passes use the same orders in every run: which job a
    // set-up shares the pool with changes its latency, and the metric
    // compares runs, not pairings.
    for pass in 0..SETUP_PASSES {
        let order = round_order(specs.len(), 0, u64::MAX - pass);
        out.setup
            .extend(run_batch(&queue, specs, &order, true, tr, &tally).0);
    }
    let start = Instant::now();
    let mut round = 0;
    while out.rounds_s.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let order = round_order(specs.len(), seed, round);
        let (jobs, wall) = tr.span("sweep.round", None, |_| {
            run_batch(&queue, specs, &order, false, tr, &tally)
        });
        out.jobs.extend(jobs);
        out.rounds_s.push(wall);
        round += 1;
    }
    queue.shutdown();
    outcome.merge(tally.into_inner().unwrap_or_else(PoisonError::into_inner));
    out
}

/// Median latency per configuration.
fn per_spec_median(results: &[JobResult], n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let lat: Vec<f64> = results
                .iter()
                .filter(|r| r.spec == i)
                .map(|r| r.latency_s)
                .collect();
            median(&lat)
        })
        .collect()
}

/// Share of job latency outside stepping: summed per-configuration
/// median set-up latency over summed median full-job latency.
pub fn setup_share(run: &SweepRun) -> f64 {
    let setup: f64 = per_spec_median(&run.setup, run.specs).iter().sum();
    let full: f64 = per_spec_median(&run.jobs, run.specs).iter().sum();
    setup / full
}

/// The end-to-end metrics of the sweep.
pub fn metrics(run: &SweepRun) -> Metrics {
    let lat: Vec<f64> = run.jobs.iter().map(|j| j.latency_s).collect();
    let setup = per_spec_median(&run.setup, run.specs);
    let busy: f64 = run.rounds_s.iter().sum();
    let updates: f64 = run.jobs.iter().map(|j| j.cell_updates).sum();
    let mut m = Metrics::default();
    // Mean over configurations of each one's median set-up latency: a
    // median over the pooled mix would jump between configurations.
    m.set(
        "setup_s",
        setup.iter().sum::<f64>() / setup.len() as f64,
        "s",
    );
    m.set("solve_s", median(&run.rounds_s), "s");
    m.set("cell_updates_per_s", updates / busy, "1/s");
    m.set("jobs_per_s", run.jobs.len() as f64 / busy, "1/s");
    m.set("job_latency_s.p50", percentile(&lat, 50.0), "s");
    m.set("job_latency_s.p90", percentile(&lat, 90.0), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}
