//! A serial reference oracle for `Engine::step`: the seed cell-centric
//! step, built only from the public layer functions.
//!
//! Per step it runs the block predictor over the whole mesh in blocks of
//! the engine's block size, then a per-cell corrector that re-solves
//! each of the cell's six faces from both adjacent predictor outputs —
//! so every interior face is solved twice, once per cell (`6 · cells`
//! Riemann solves), with no shard plan and no face index. Point sources
//! are projected via `CellSource::project` with their amplitude
//! derivatives refreshed at each step's start time, exactly as the
//! engine does.
//!
//! It shares no step code with the engine, which is what makes it an
//! independent reference for `tests/pipeline_equivalence.rs`,
//! `tests/flux_count.rs` and `tests/determinism.rs`.

use aderdg::core::corrector::{apply_face, apply_volume, CorrectorScratch};
use aderdg::core::{
    boundary_face, rusanov_face, BlockInputs, BoundaryScratch, CellBlock, CellSource, Engine,
    StpOutputs,
};
use aderdg::mesh::{Face, Neighbor};
use aderdg::pde::{LinearPde, PointSource};
use aderdg::tensor::AlignedVec;

/// Runs `steps` oracle steps of length `dt` from `engine`'s current state
/// and time (the engine itself is not advanced) with the given point
/// sources, and returns the final state of every cell in cell order,
/// padding included (the layout of `Engine::cell_state`). `engine`
/// supplies the mesh, PDE, plan, kernel and block size.
pub fn run<P: LinearPde>(
    engine: &Engine<P>,
    sources: &[PointSource],
    dt: f64,
    steps: usize,
) -> Vec<f64> {
    let (plan, pde, mesh) = (&engine.plan, &engine.pde, &engine.mesh);
    let kernel = engine.config.kernel;
    let bsize = engine.block_size();
    let cells = mesh.num_cells();
    let mut state: Vec<AlignedVec> = (0..cells)
        .map(|c| AlignedVec::from_slice(engine.cell_state(c)))
        .collect();
    let mut outputs: Vec<StpOutputs> = (0..cells).map(|_| StpOutputs::new(plan)).collect();
    let mut cell_sources: Vec<Option<CellSource>> = (0..cells).map(|_| None).collect();
    let mut scratch = kernel.make_block_scratch(plan, bsize);
    let mut block = CellBlock::new(plan, bsize);
    let mut corr = CorrectorScratch::new(plan);
    let mut bscratch = BoundaryScratch::new(plan);
    let mut f_star = vec![0.0; plan.face.len()];
    let mut time = engine.time;

    for _ in 0..steps {
        for src in sources {
            let cell = mesh.locate(src.position);
            let xi = mesh.to_reference(cell, src.position);
            let derivs = src.amplitude_derivatives(time, plan.n());
            cell_sources[cell] = Some(CellSource::project(plan, xi, mesh.cell_size(), derivs));
        }

        // 1. Predictor over cell blocks of the whole mesh.
        for (bi, outs) in outputs.chunks_mut(bsize).enumerate() {
            let base = bi * bsize;
            block.clear();
            for q in &state[base..base + outs.len()] {
                block.push(q);
            }
            let srcs: Vec<Option<&CellSource>> = cell_sources[base..base + outs.len()]
                .iter()
                .map(Option::as_ref)
                .collect();
            let inputs = BlockInputs::new(&block, dt, &srcs);
            kernel.run_block(plan, pde, scratch.as_mut(), &inputs, outs);
        }

        // 2. Corrector: volume plus the six faces of every cell, each
        //    face re-solved from this cell's side.
        for (c, q) in state.iter_mut().enumerate() {
            let out = &outputs[c];
            apply_volume(plan, pde, &mut corr, out, q);
            for face in Face::ALL {
                let (d, side, fi) = (face.dim, face.side, face.index());
                match mesh.neighbor(c, face) {
                    Neighbor::Cell(nb) => {
                        let nb_out = &outputs[nb];
                        let of = face.opposite().index();
                        // The lower cell's upper trace is the left state.
                        let (left, lf, right, rf) = if side == 0 {
                            (nb_out, of, out, fi)
                        } else {
                            (out, fi, nb_out, of)
                        };
                        rusanov_face(
                            plan,
                            pde,
                            d,
                            &left.qface[lf],
                            &left.fface[lf],
                            &right.qface[rf],
                            &right.fface[rf],
                            &mut f_star,
                        );
                    }
                    Neighbor::Boundary(kind) => boundary_face(
                        plan,
                        pde,
                        d,
                        side,
                        kind,
                        &out.qface[fi],
                        &out.fface[fi],
                        &mut bscratch,
                        &mut f_star,
                    ),
                }
                apply_face(plan, d, side, &f_star, &out.fface[fi], q);
            }
        }
        time += dt;
    }
    state.iter().flat_map(|q| q.iter().copied()).collect()
}
