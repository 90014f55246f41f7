//! Thread-count determinism: `Engine::step` must be bit-identical under
//! `ADERDG_THREADS = 1`, `4` and `16`, and match the serial cell-centric
//! reference oracle (`tests/common/oracle.rs`) to the last bit.
//!
//! The task *schedule* is thread-count dependent, but every face flux is
//! computed exactly once by one task from fixed predictor outputs, each
//! cell applies its corrections in a fixed order, and `max_dt`'s
//! parallel reduction is a pure `max` folded in chunk order — so the
//! execution order must never leak into results, not even in the last
//! ulp. These tests guard the shard scheduler and the chunked cell loops
//! against accumulation-order drift.

#[path = "common/oracle.rs"]
mod oracle;

use aderdg::core::{par, Engine, EngineConfig, SteppingMode};
use aderdg::mesh::StructuredMesh;
use aderdg::pde::{Acoustic, PointSource, SourceTimeFunction};
use std::sync::Mutex;

/// The thread-count override is process-global; serialize the tests that
/// flip it so they cannot interleave.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

/// A seeded acoustic problem with a point source, and its step length.
fn seeded(config: EngineConfig) -> (Engine<Acoustic>, PointSource, f64) {
    let mesh = StructuredMesh::unit_cube(3);
    let mut engine = Engine::new(mesh, Acoustic, config);
    // Smooth deterministic initial data (a function of position only, so
    // every thread count computes identical node values).
    engine.set_initial(|x, q| {
        let s = (x[0] * 12.9898 + x[1] * 78.233 + x[2] * 37.719).sin();
        q[0] = 0.1 * s;
        q[1] = 0.05 * (x[0] * 3.0).cos();
        q[2] = 0.0;
        q[3] = 0.02 * s * s;
        Acoustic::set_params(q, 1.0 + 0.2 * x[2], 1.0);
    });
    let source = PointSource {
        position: [0.4, 0.55, 0.6],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.08,
            frequency: 6.0,
        },
    };
    engine.add_point_source(source.clone());
    let dt = engine.max_dt() * 0.5;
    assert!(dt.is_finite() && dt > 0.0);
    (engine, source, dt)
}

/// Runs the seeded problem at the given thread count and returns the
/// full evolved state, bit-exact.
fn run_with(threads: usize, config: EngineConfig) -> Vec<u64> {
    par::set_num_threads(threads);
    let (mut engine, _, dt) = seeded(config);
    for _ in 0..3 {
        engine.step(dt);
    }
    (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().map(|v| v.to_bits()))
        .collect()
}

/// Asserts `config` produces bit-identical evolved states at 1, 4 and 16
/// worker threads.
fn assert_thread_invariant(config: EngineConfig, label: &str) {
    let reference = run_with(1, config);
    assert!(
        reference.iter().any(|&b| b != 0),
        "{label}: the run must actually evolve data"
    );
    for threads in [4, 16] {
        let result = run_with(threads, config);
        assert_eq!(
            result.len(),
            reference.len(),
            "{label}: state layout changed with thread count {threads}"
        );
        let diffs = result
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(
            diffs, 0,
            "{label}: {diffs} doubles differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn step_results_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    // Pinned to global stepping: that is what the oracle computes.
    let config = EngineConfig::new(3).with_stepping(SteppingMode::Global);
    assert_thread_invariant(config, "global");
    let (engine, source, dt) = seeded(config);
    let reference: Vec<u64> = oracle::run(&engine, &[source], dt, 3)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let diffs = run_with(1, config)
        .iter()
        .zip(&reference)
        .filter(|(a, b)| a != b)
        .count();
    assert_eq!(diffs, 0, "{diffs} doubles differ from the serial oracle");
    par::set_num_threads(before);
}

#[test]
fn sharded_step_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    // Auto shard size plus explicit sizes that split the 27-cell mesh
    // into many shards (worst case for schedule-dependent ordering) and
    // one-shard / uneven-tail partitions.
    let base = EngineConfig::new(3);
    assert_thread_invariant(base, "sharded(auto)");
    for shard_size in [2, 5, 27] {
        assert_thread_invariant(
            base.with_shard_size(shard_size),
            &format!("sharded({shard_size})"),
        );
    }
    par::set_num_threads(before);
}

#[test]
fn steal_heavy_sharded_step_bit_identical_across_thread_counts() {
    // Steal-heavy workload: shard sizes that leave uneven tails on the
    // 27-cell mesh (13+13+1 and 11+11+5) give some workers far more cells
    // than others, so the pool's idle workers must steal to finish — the
    // schedule differs maximally between thread counts, yet the evolved
    // state must not drift by a single bit.
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    for shard_size in [13, 11] {
        assert_thread_invariant(
            EngineConfig::new(3).with_shard_size(shard_size),
            &format!("steal-heavy shard_size={shard_size}"),
        );
    }
    par::set_num_threads(before);
}

#[test]
fn max_dt_bit_identical_across_thread_counts() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let before = par::num_threads();
    let dt_at = |threads: usize| {
        par::set_num_threads(threads);
        let mesh = StructuredMesh::unit_cube(4);
        let mut engine = Engine::new(mesh, Acoustic, EngineConfig::new(2));
        engine.set_initial(|x, q| {
            q[0] = x[0];
            q[1] = 0.0;
            q[2] = 0.0;
            q[3] = 0.0;
            Acoustic::set_params(q, 1.0 + 0.5 * x[1], 1.0 + 0.25 * x[0]);
        });
        engine.max_dt().to_bits()
    };
    let reference = dt_at(1);
    for threads in [4, 16] {
        assert_eq!(dt_at(threads), reference, "max_dt drifted at {threads}");
    }
    par::set_num_threads(before);
}
