//! Local time stepping vs global stepping.
//!
//! Two contracts from `docs/LTS.md`:
//!
//! 1. **Degenerate exactness** — on a dt-homogeneous problem every cell
//!    lands in one cluster, the LTS graph is the single-level Predict →
//!    Flux → Apply chain global stepping runs, with `num_slots = 1`, and
//!    `stepping = lts` must reproduce `stepping = global`
//!    **bit-for-bit**: same partition, same once-per-face flux order,
//!    same corrector order, `dt_base = dt / 1` exact — although the
//!    levels come from `assign_levels` over the state and the dt from
//!    the cached cluster metadata instead of a fresh reduction. Checked
//!    for every registered kernel, several shard sizes and 1/4/16 worker
//!    threads.
//!
//! 2. **Two-cluster accuracy** — on a 2:1 wave-speed contrast the slow
//!    cells step at `2·dt_base`, composing the coarse predictor's
//!    time-integrated traces into per-sub-window fluxes by differencing
//!    (`window 1 = half run, window 2 = full − half`). Relative to a
//!    global run at the fine dt that is an O(dt²) coupling difference
//!    (see [`two_cluster_diff`]), so the evolved state must match the
//!    fine-dt global run to ≤ 1e-10 at small dt *and* the difference
//!    must shrink at second order under dt refinement — on both acoustic
//!    and shallow-water physics.

use aderdg::core::{par, Engine, EngineConfig, KernelRegistry, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{Acoustic, LinearizedSwe, PointSource, SourceTimeFunction};
use std::sync::Mutex;

/// The thread-count override is process-global; serialize the tests that
/// flip it so they cannot interleave.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// A small mesh exercising interior, periodic-wrap, outflow and
/// reflective faces at once.
fn mesh() -> StructuredMesh {
    StructuredMesh::new(
        [3, 3, 2],
        [0.0; 3],
        [1.0; 3],
        [
            BoundaryKind::Periodic,
            BoundaryKind::Outflow,
            BoundaryKind::Reflective,
        ],
    )
}

/// Runs three steps of a seeded acoustic problem with a point source on a
/// dt-homogeneous medium (uniform material ⇒ uniform per-cell CFL dt ⇒ a
/// single LTS cluster) and returns the evolved state, bit-exact.
fn run_homogeneous(config: EngineConfig) -> Vec<u64> {
    let mut engine = Engine::new(mesh(), Acoustic, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 5.1 + x[1] * 2.7 - x[2] * 3.9).sin();
        q[0] = 0.2 * s;
        q[1] = 0.1 * (x[1] * 4.0).cos();
        q[2] = -0.05 * s;
        q[3] = 0.03 * s * s;
        // Uniform material: the acoustic wavespeed depends only on the
        // parameters, so every cell gets the identical stable dt.
        Acoustic::set_params(q, 1.0, 1.0);
    });
    engine.add_point_source(PointSource {
        position: [0.45, 0.52, 0.3],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.05,
            frequency: 8.0,
        },
    });
    let dt = engine.max_dt() * 0.6;
    assert!(dt.is_finite() && dt > 0.0);
    for _ in 0..3 {
        engine.step(dt);
    }
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect()
}

/// Asserts the degenerate LTS run is bit-identical to the global run
/// under `config`'s kernel/shard settings.
fn assert_degenerate_bitwise(base: EngineConfig, label: &str) {
    let global = run_homogeneous(base.with_stepping(SteppingMode::Global));
    assert!(
        global.iter().any(|&b| b != 0),
        "{label}: the run must actually evolve data"
    );
    let lts = run_homogeneous(base.with_stepping(SteppingMode::Lts));
    let diffs = lts.iter().zip(&global).filter(|(a, b)| a != b).count();
    assert_eq!(
        diffs, 0,
        "{label}: {diffs} doubles differ between degenerate LTS and the \
         global run"
    );
}

#[test]
fn degenerate_lts_bitwise_matches_global_for_every_kernel() {
    let _guard = THREAD_KNOB.lock().unwrap();
    for name in KernelRegistry::global().names() {
        assert_degenerate_bitwise(
            EngineConfig::new(3).with_kernel_name(name),
            &format!("kernel {name}"),
        );
    }
}

#[test]
fn degenerate_lts_bitwise_matches_global_across_shard_sizes() {
    let _guard = THREAD_KNOB.lock().unwrap();
    // Auto plus explicit sizes splitting the 18-cell mesh into many
    // shards, one shard, and uneven tails.
    assert_degenerate_bitwise(EngineConfig::new(3), "sharded(auto)");
    for shard_size in [2, 5, 18] {
        assert_degenerate_bitwise(
            EngineConfig::new(3).with_shard_size(shard_size),
            &format!("sharded({shard_size})"),
        );
    }
}

#[test]
fn degenerate_lts_bitwise_matches_global_across_threads() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let threads_before = par::num_threads();
    par::set_num_threads(1);
    let config = EngineConfig::new(3).with_shard_size(5);
    let reference = run_homogeneous(config.with_stepping(SteppingMode::Global));
    for threads in [1, 4, 16] {
        par::set_num_threads(threads);
        let lts = run_homogeneous(config.with_stepping(SteppingMode::Lts));
        let diffs = lts.iter().zip(&reference).filter(|(a, b)| a != b).count();
        assert_eq!(
            diffs, 0,
            "{diffs} doubles differ between degenerate LTS at {threads} \
             threads and the 1-thread global run"
        );
    }
    par::set_num_threads(threads_before);
}

/// Max relative elementwise difference, scaled by the largest magnitude.
fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let scale = a
        .iter()
        .chain(b.iter())
        .fold(0.0f64, |m, &v| m.max(v.abs()))
        .max(1e-300);
    a.iter()
        .zip(b)
        .fold(0.0f64, |m, (&x, &y)| m.max((x - y).abs()))
        / scale
}

/// Runs `steps` macro steps of a layered two-cluster problem (2:1
/// wave-speed contrast along x) under LTS at `dt_factor` of the stable
/// macro dt, and the same physical span at the fine dt under global
/// stepping; returns the max relative state difference.
///
/// The two runs are *not* the same scheme: the coarse cells' window-2
/// face traces extrapolate the macro-step-start predictor, while the
/// fine-dt global run re-predicts mid-window from a state that already
/// absorbed the first half-window's corrector fluxes. Over a fixed step
/// count that inter-scheme coupling difference is O(dt²) — it is the
/// standard predictor-based-LTS approximation, and it vanishes under
/// refinement, which the convergence-order test below pins.
fn two_cluster_diff<P, F>(pde: impl Fn() -> P, init: F, steps: usize, dt_factor: f64) -> f64
where
    P: aderdg::pde::LinearPde,
    F: Fn([f64; 3], &mut [f64]) + Copy + Sync,
{
    let mesh = || StructuredMesh::new([4, 2, 2], [0.0; 3], [1.0; 3], [BoundaryKind::Reflective; 3]);
    let config = EngineConfig::new(5);

    let mut lts = Engine::new(mesh(), pde(), config.with_stepping(SteppingMode::Lts));
    lts.set_initial(init);
    // The 2:1 speed contrast must actually produce two clusters: the
    // macro cycle has 2 slots, the fine clock sub-steps twice per cycle.
    let dt_macro = lts.max_dt() * dt_factor;
    assert_eq!(lts.lts_clocks().len(), 0, "clocks allocate on first step");
    for _ in 0..steps {
        lts.step(dt_macro);
    }
    assert_eq!(lts.lts_clocks().len(), 2, "expected exactly two dt levels");
    assert_eq!(lts.lts_clocks()[0].1, 2 * steps as u64);
    assert_eq!(lts.lts_clocks()[1].1, steps as u64);

    let mut global = Engine::new(mesh(), pde(), config.with_stepping(SteppingMode::Global));
    global.set_initial(init);
    for _ in 0..2 * steps {
        global.step(dt_macro / 2.0);
    }
    let state = |e: &Engine<P>| -> Vec<f64> {
        (0..e.mesh.num_cells())
            .flat_map(|c| e.cell_state(c).iter().copied())
            .collect()
    };
    max_rel_diff(&state(&lts), &state(&global))
}

#[test]
fn two_cluster_lts_matches_fine_global_run_acoustic() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let init = |x: [f64; 3], q: &mut [f64]| {
        q.fill(0.0);
        let r2: f64 = x.iter().map(|&c| (c - 0.6) * (c - 0.6)).sum();
        q[aderdg::pde::acoustic::P] = (-r2 / (2.0 * 0.15 * 0.15)).exp();
        // bulk 4 vs 1 at unit density: sound speed 2 vs 1.
        let bulk = if x[0] < 0.5 { 4.0 } else { 1.0 };
        Acoustic::set_params(q, 1.0, bulk);
    };
    let diff = two_cluster_diff(|| Acoustic, init, 4, 2.5e-4);
    assert!(
        diff <= 1e-10,
        "acoustic: two-cluster LTS differs from the fine-dt global run by \
         {diff:.3e} (> 1e-10)"
    );
    // The coupling difference must be second order in dt: halving the
    // step shrinks it ~4× (measured at a dt where it dominates
    // round-off). A wrong sub-window composition — missing differencing,
    // wrong window sign — degrades this to O(dt) or O(1) and fails here.
    let coarse = two_cluster_diff(|| Acoustic, init, 4, 0.05);
    let fine = two_cluster_diff(|| Acoustic, init, 4, 0.025);
    let rate = coarse / fine;
    assert!(
        (3.0..=5.5).contains(&rate),
        "acoustic: LTS coupling difference not second order: \
         {coarse:.3e} → {fine:.3e} under dt halving (ratio {rate:.2})"
    );
}

#[test]
fn two_cluster_lts_matches_fine_global_run_swe() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let init = |x: [f64; 3], q: &mut [f64]| {
        q.fill(0.0);
        // A smoothed dam-break elevation step over a stepped bottom:
        // depth 4 vs 1 at g = 1 gives gravity-wave speeds 2 vs 1.
        q[aderdg::pde::swe::ETA] = 0.1 * (1.0 + ((0.55 - x[0]) / 0.1).tanh()) / 2.0;
        let depth = if x[0] < 0.5 { 4.0 } else { 1.0 };
        LinearizedSwe::set_params(q, depth, 1.0);
    };
    let diff = two_cluster_diff(|| LinearizedSwe, init, 4, 2.5e-4);
    assert!(
        diff <= 1e-10,
        "swe: two-cluster LTS differs from the fine-dt global run by \
         {diff:.3e} (> 1e-10)"
    );
}
