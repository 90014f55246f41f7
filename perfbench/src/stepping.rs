//! The end-to-end loop of a stepping workload: set up, solve to `t_end`,
//! check, repeat until the run's time is spent.

use crate::host::peak_rss_mib;
use crate::problem::Problem;
use crate::report::{Metrics, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use aderdg_core::{Engine, SteppingMode};
use aderdg_pde::LinearPde;
use std::time::Instant;

/// Relative drift of a wall-conserved integral that still counts as
/// round-off.
pub const CONSERVATION_TOL: f64 = 1e-11;

/// Measurements of one solve.
#[derive(Debug, Clone, Default)]
pub struct Solve {
    /// Engine set-up seconds (`Engine::new`, `set_initial`, first
    /// `max_dt`).
    pub setup_s: f64,
    /// Seconds stepping from `t = 0` to `t_end`.
    pub solve_s: f64,
    /// Steps taken (macro steps under LTS).
    pub steps: usize,
    /// Cell updates per step: cells under global stepping, cell
    /// sub-steps per macro step under LTS.
    pub updates_per_step: f64,
    /// Wall seconds of each step (including its `max_dt`).
    pub step_s: Vec<f64>,
    /// Final L2 error over the wave amplitude, where an exact solution
    /// exists.
    pub rel_l2_error: Option<f64>,
}

/// Cell updates one `Engine::step` performs: every cell once under
/// global stepping; under LTS each cell of level `L` runs
/// `2^(Lmax − L)` sub-steps per macro step.
pub fn updates_per_step<P: LinearPde>(engine: &Engine<P>) -> f64 {
    match engine.config.stepping {
        SteppingMode::Global => engine.mesh.num_cells() as f64,
        SteppingMode::Lts => {
            let plan = engine.lts_plan();
            let lmax = plan.num_levels() - 1;
            (0..plan.num_shards())
                .map(|s| {
                    let sub = 1usize << (lmax - plan.shard_level(s) as usize);
                    (plan.shard_range(s).len() * sub) as f64
                })
                .sum()
        }
    }
}

/// One solve: set up, step to `t_end` through `Engine::advance_until`,
/// check the final state. Step boundaries are stamped from the
/// `keep_going` callback, which the engine calls before every step.
pub fn solve_once<P: LinearPde + Clone>(
    problem: &Problem<P>,
    tr: &Tracer,
    rel_l2_bound: f64,
    outcome: &mut Outcome,
) -> Solve {
    tr.span("solve", None, |sid| {
        let t0 = Instant::now();
        let mut engine = tr.span("setup", sid, |p| problem.setup(tr, p));
        let setup_s = t0.elapsed().as_secs_f64();
        let integral0 = problem.conserved.map(|q| engine.integrals()[q]);
        let updates = updates_per_step(&engine);

        let mut marks: Vec<Instant> = Vec::new();
        let start = Instant::now();
        let reached = tr.span("engine.advance_until", sid, |_| {
            engine.advance_until(problem.t_end, |_| {
                marks.push(Instant::now());
                true
            })
        });
        let end = Instant::now();
        let solve_s = (end - start).as_secs_f64();
        marks.push(end);
        let step_s: Vec<f64> = marks
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        for w in marks.windows(2) {
            tr.record("engine.advance_step", sid, w[0], w[1]);
        }

        let name = problem.scenario;
        outcome.check(matches!(reached, Ok(true)), || {
            format!("{name}: advance_until did not reach t_end: {reached:?}")
        });
        let norm = engine.l2_norm();
        outcome.check(norm.is_finite(), || {
            format!("{name}: non-finite state (L2 norm {norm})")
        });
        let rel_l2_error = problem.exact.as_ref().map(|(exact, amplitude)| {
            let rel = engine.l2_error(exact.as_ref()) / amplitude;
            outcome.check(rel <= rel_l2_bound, || {
                format!("{name}: L2 error / amplitude {rel:e} above the bound {rel_l2_bound:e}")
            });
            rel
        });
        if let (Some(q), Some(i0)) = (problem.conserved, integral0) {
            let i1 = engine.integrals()[q];
            let drift = (i1 - i0).abs() / i0.abs().max(f64::MIN_POSITIVE);
            outcome.check(drift <= CONSERVATION_TOL, || {
                format!("{name}: conserved integral drifted by {drift:e} (from {i0:e} to {i1:e})")
            });
        }
        Solve {
            setup_s,
            solve_s,
            steps: engine.steps,
            updates_per_step: updates,
            step_s,
            rel_l2_error,
        }
    })
}

/// Repeats [`solve_once`] until `seconds` have passed and at least
/// `min_solves` solves are done. One untimed warm-up set-up first fills
/// the tuner's process-wide memo, so every timed set-up sees the same
/// state.
pub fn run_solves<P: LinearPde + Clone>(
    problem: &Problem<P>,
    tr: &Tracer,
    seconds: f64,
    min_solves: usize,
    rel_l2_bound: f64,
    outcome: &mut Outcome,
) -> Vec<Solve> {
    drop(problem.setup(&Tracer::new(false), None));
    let start = Instant::now();
    let mut solves = Vec::new();
    while solves.len() < min_solves || start.elapsed().as_secs_f64() < seconds {
        solves.push(solve_once(problem, tr, rel_l2_bound, outcome));
    }
    solves
}

/// The end-to-end metrics of a stepping workload.
pub fn metrics(solves: &[Solve]) -> Metrics {
    let col = |f: &dyn Fn(&Solve) -> f64| solves.iter().map(f).collect::<Vec<f64>>();
    let steps: Vec<f64> = solves
        .iter()
        .flat_map(|s| s.step_s.iter().copied())
        .collect();
    let mut m = Metrics::default();
    m.set("setup_s", median(&col(&|s| s.setup_s)), "s");
    m.set("solve_s", median(&col(&|s| s.solve_s)), "s");
    m.set(
        "cell_updates_per_s",
        median(&col(&|s| s.updates_per_step * s.steps as f64 / s.solve_s)),
        "1/s",
    );
    m.set(
        "jobs_per_s",
        median(&col(&|s| s.steps as f64 / s.solve_s)),
        "1/s",
    );
    m.set("job_latency_s.p50", percentile(&steps, 50.0), "s");
    m.set("job_latency_s.p90", percentile(&steps, 90.0), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    m
}
