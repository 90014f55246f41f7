//! Pins the engine's once-per-face shard step to the serial cell-centric
//! reference oracle (`tests/common/oracle.rs`): for **every registered
//! kernel** and shard sizes {1, 3, whole-mesh}, a run over a mesh with
//! all three boundary kinds and a point-source cell must agree to
//! ≤ 1e-12 relative — the two implement the same scheme, differing only
//! in when and how often each face's Riemann problem is solved.

#[path = "common/oracle.rs"]
mod oracle;

use aderdg::core::{Engine, EngineConfig, KernelRegistry, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::{Acoustic, PointSource, SourceTimeFunction};

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

/// Runs three steps of a seeded acoustic problem with a point source and
/// returns the full evolved state of the engine and of the oracle
/// started from the same initial state. The oracle steps globally, so
/// the engine is pinned to global stepping (against the
/// `ADERDG_STEPPING=lts` CI leg).
fn run(config: EngineConfig) -> (Vec<f64>, Vec<f64>) {
    let config = config.with_stepping(SteppingMode::Global);
    let mut engine = Engine::new(mesh(), Acoustic, config);
    engine.set_initial(|x, q| {
        let s = (x[0] * 5.1 + x[1] * 2.7 - x[2] * 3.9).sin();
        q[0] = 0.2 * s;
        q[1] = 0.1 * (x[1] * 4.0).cos();
        q[2] = -0.05 * s;
        q[3] = 0.03 * s * s;
        Acoustic::set_params(q, 1.0 + 0.3 * x[0], 1.0 + 0.1 * x[2]);
    });
    let source = PointSource {
        position: [0.45, 0.52, 0.3],
        amplitude: vec![1.0, 0.0, 0.0, 0.0],
        stf: SourceTimeFunction::Ricker {
            t0: 0.05,
            frequency: 8.0,
        },
    };
    engine.add_point_source(source.clone());
    let dt = engine.max_dt() * 0.6;
    let reference = oracle::run(&engine, &[source], dt, 3);
    for _ in 0..3 {
        engine.step(dt);
    }
    let state = (0..engine.mesh.num_cells())
        .flat_map(|c| engine.cell_state(c).iter().copied())
        .collect();
    (state, reference)
}

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

#[test]
fn sharded_matches_barrier_for_every_kernel_and_shard_size() {
    // "barrier" is the oracle: the seed cell-centric step with a global
    // barrier between predictor and corrector.
    let cells = mesh().num_cells();
    for name in KernelRegistry::global().names() {
        for shard_size in [1, 3, cells] {
            let (sharded, reference) = run(EngineConfig::new(3)
                .with_kernel_name(name)
                .with_shard_size(shard_size));
            assert!(
                reference.iter().any(|&v| v != 0.0),
                "{name}: the oracle run must evolve data"
            );
            let diff = max_rel_diff(&reference, &sharded);
            assert!(
                diff <= 1e-12,
                "{name}, shard_size={shard_size}: max rel diff {diff:e}"
            );
        }
    }
}

#[test]
fn auto_shard_size_matches_barrier_bitwise_for_the_default_kernel() {
    // With auto shard sizing the shard boundaries align to predictor
    // blocks, so the default kernel must agree with the oracle to the
    // last bit, not just to tolerance.
    let (sharded, reference) = run(EngineConfig::new(3));
    let diffs = reference
        .iter()
        .zip(&sharded)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(diffs, 0, "{diffs} doubles differ from the oracle");
}
