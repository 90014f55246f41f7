//! The once-per-face contract, measured: the engine's shard step
//! performs `interior + boundary` Riemann solves per step (eq. 5 — one
//! per face), where the cell-centric reference oracle
//! (`tests/common/oracle.rs`) performs `6 · cells` (every interior face
//! twice).
//!
//! Uses the debug-build flux-solve counter in `aderdg::core::riemann`;
//! the counter is process-global, so all assertions live in this one
//! test function (integration-test files run as their own process).

#[path = "common/oracle.rs"]
mod oracle;

use aderdg::core::riemann::{
    flux_solve_count, flux_solve_counting_enabled, reset_flux_solve_count,
};
use aderdg::core::{Engine, EngineConfig, SteppingMode};
use aderdg::mesh::{BoundaryKind, StructuredMesh};
use aderdg::pde::Acoustic;

fn engine(config: EngineConfig, mesh: StructuredMesh) -> Engine<Acoustic> {
    let mut engine = Engine::new(mesh, Acoustic, config);
    engine.set_initial(|x, q| {
        q[0] = (x[0] * 3.0 + x[1]).sin();
        q[1] = 0.1 * x[2];
        q[2] = 0.0;
        q[3] = 0.0;
        Acoustic::set_params(q, 1.0, 1.0);
    });
    engine
}

/// Riemann solves of the engine's second step (the first is a warm-up
/// outside the counted window).
fn step_solves(config: EngineConfig, mesh: StructuredMesh) -> usize {
    let mut engine = engine(config, mesh);
    let dt = engine.max_dt() * 0.5;
    engine.step(dt);
    reset_flux_solve_count();
    engine.step(dt);
    flux_solve_count()
}

/// Riemann solves of one oracle step.
fn oracle_solves(mesh: StructuredMesh) -> usize {
    let engine = engine(EngineConfig::new(3), mesh);
    let dt = engine.max_dt() * 0.5;
    reset_flux_solve_count();
    oracle::run(&engine, &[], dt, 1);
    flux_solve_count()
}

#[test]
fn sharded_step_solves_each_face_exactly_once() {
    if !flux_solve_counting_enabled() {
        eprintln!("flux-solve counter disabled (release build); skipping");
        return;
    }

    // Fully periodic cube: 3·cells interior faces, no boundary. Pin
    // `stepping = global` against the `ADERDG_STEPPING=lts` CI leg.
    let cells = 27;
    let oracle = oracle_solves(StructuredMesh::unit_cube(3));
    assert_eq!(oracle, 6 * cells, "oracle: two solves per interior face");
    let sharded = step_solves(
        EngineConfig::new(3)
            .with_stepping(SteppingMode::Global)
            .with_shard_size(4),
        StructuredMesh::unit_cube(3),
    );
    assert_eq!(
        sharded,
        3 * cells,
        "once-per-face step halves the interior solves"
    );
    // Degenerate LTS (uniform medium ⇒ one cluster, one slot per macro
    // cycle) inherits the once-per-face count exactly.
    let lts = step_solves(
        EngineConfig::new(3)
            .with_stepping(SteppingMode::Lts)
            .with_shard_size(4),
        StructuredMesh::unit_cube(3),
    );
    assert_eq!(lts, 3 * cells, "degenerate LTS solves each face once");

    // Mixed boundaries: interior + boundary faces, straight from the
    // shard plan's canonical face index.
    let mesh = StructuredMesh::new(
        [3, 2, 2],
        [0.0; 3],
        [1.0; 3],
        [
            BoundaryKind::Outflow,
            BoundaryKind::Reflective,
            BoundaryKind::Periodic,
        ],
    );
    let config = EngineConfig::new(3).with_stepping(SteppingMode::Global);
    let engine = Engine::new(mesh.clone(), Acoustic, config);
    let splan = engine.shard_plan().expect("the engine has a shard plan");
    let expected = splan.num_interior_faces() + splan.num_boundary_faces();
    drop(engine);
    let sharded = step_solves(config, mesh.clone());
    assert_eq!(sharded, expected, "one solve per canonical face");
    let oracle = oracle_solves(mesh);
    assert_eq!(oracle, 6 * 12, "oracle visits every cell slot");
    assert!(sharded < oracle);
}
