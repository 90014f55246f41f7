//! The traced per-layer probes: every layer's public entry points timed
//! on the workload's own engine, plan and state.
//!
//! The centrepiece is the *layer replay*: one step re-executed serially
//! through the public predictor (`StpKernel::run_block`), Riemann
//! (`rusanov_face` / `boundary_face`) and corrector (`apply_volume` /
//! `apply_face`) functions, in the order and on the canonical face index
//! the engine's shard pipeline uses. Its result must match
//! `Engine::step` to 1e-12, which proves the replay measures the same
//! work the engine does.

use crate::problem::Problem;
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use crate::stepping::updates_per_step;
use crate::trace::{SpanId, Tracer};
use aderdg_core::corrector::{apply_face, apply_volume, CorrectorScratch};
use aderdg_core::mix::{stp_pack_counts, stp_useful_flops, UserFunctionCost};
use aderdg_core::tune::tune_plan;
use aderdg_core::{
    auto_shard_size, boundary_face, par, rusanov_face, BlockInputs, BoundaryScratch, CellBlock,
    Engine, EngineConfig, KernelRegistry, KernelVariant, SteppingMode, StpConfig, StpOutputs,
};
use aderdg_gemm::GemmBatch;
use aderdg_mesh::{assign_levels, Face, FaceTopo, LtsGraph, ShardPlan, MAX_LTS_LEVEL};
use aderdg_pde::LinearPde;
use aderdg_tensor::{AlignedVec, Lcg};
use std::hint::black_box;
use std::time::Instant;

/// Kernels whose whole-engine step time is compared (the ROADMAP's
/// AoSoA anomaly).
pub const STEP_KERNELS: [&str; 2] = ["splitck", "aosoa_splitck"];

/// Highest LTS level whose cell count is reported per level.
pub const CENSUS_LEVELS: usize = 4;

/// Largest relative difference the replay may show against
/// `Engine::step`.
pub const REPLAY_TOL: f64 = 1e-12;

/// Repetition counts of the probes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizes {
    /// Timed repetitions of each probe (after one untimed warm-up).
    pub reps: usize,
    /// Minimum milliseconds of the peak-FLOP measurement.
    pub peak_ms: u64,
    /// Minimum seconds each GEMM shape is timed for.
    pub gemm_s: f64,
}

/// Per-cell CFL dt exactly as the engine derives it for LTS clustering:
/// `cfl / ((2N − 1) · max_nodes Σ_d s_d / Δx_d)`.
fn cell_dt<P: LinearPde>(engine: &Engine<P>, cell: usize) -> f64 {
    let plan = &engine.plan;
    let (n, m, m_pad) = (plan.n(), plan.m(), plan.aos.m_pad());
    let dx = engine.mesh.cell_size();
    let q = engine.cell_state(cell);
    let mut rate: f64 = 0.0;
    for k in 0..n * n * n {
        let node = &q[k * m_pad..k * m_pad + m];
        let r: f64 = (0..3)
            .map(|d| engine.pde.max_wavespeed(d, node) / dx[d])
            .sum();
        rate = rate.max(r);
    }
    if rate == 0.0 {
        f64::INFINITY
    } else {
        engine.config.cfl / ((2.0 * n as f64 - 1.0) * rate)
    }
}

/// The shard partition the global step pipeline uses (built the same
/// way when the engine runs the barrier pipeline and keeps none).
fn shard_plan<P: LinearPde>(engine: &Engine<P>) -> ShardPlan {
    engine.shard_plan().cloned().unwrap_or_else(|| {
        let cells = engine.mesh.num_cells();
        let size = engine
            .config
            .shard_size
            .unwrap_or_else(|| auto_shard_size(cells, engine.block_size()));
        ShardPlan::new(&engine.mesh, size)
    })
}

/// One step of `engine` replayed serially through the public layer
/// functions; returns the new per-cell states.
pub fn replay_step<P: LinearPde>(
    engine: &Engine<P>,
    splan: &ShardPlan,
    dt: f64,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Vec<AlignedVec> {
    let plan = &engine.plan;
    let pde = &engine.pde;
    let kernel = engine.config.kernel;
    let bs = engine.block_size();
    let cells = engine.mesh.num_cells();
    let face_len = plan.face.len();
    let mut state: Vec<AlignedVec> = (0..cells)
        .map(|c| AlignedVec::from_slice(engine.cell_state(c)))
        .collect();
    let mut outs: Vec<StpOutputs> = (0..cells).map(|_| StpOutputs::new(plan)).collect();
    tr.span("replay.step", parent, |step| {
        tr.span("replay.predict", step, |p| {
            let mut scratch = kernel.make_block_scratch(plan, bs);
            let mut block = CellBlock::new(plan, bs);
            let sources = vec![None; bs];
            for (bi, chunk) in outs.chunks_mut(bs).enumerate() {
                block.clear();
                for q in &state[bi * bs..bi * bs + chunk.len()] {
                    block.push(q);
                }
                tr.span("stp.run_block", p, |_| {
                    let inputs = BlockInputs::new(&block, dt, &sources[..chunk.len()]);
                    kernel.run_block(plan, pde, scratch.as_mut(), &inputs, chunk);
                });
            }
        });
        let mut f_star = vec![0.0; splan.num_faces() * face_len];
        tr.span("replay.faces", step, |p| {
            let mut bscratch = BoundaryScratch::new(plan);
            for (id, dst) in f_star.chunks_mut(face_len).enumerate() {
                tr.span("riemann.face", p, |_| match splan.face(id) {
                    FaceTopo::Interior { dim, lower, upper } => {
                        let (lo, up) = (&outs[lower], &outs[upper]);
                        rusanov_face(
                            plan,
                            pde,
                            dim,
                            &lo.qface[2 * dim + 1],
                            &lo.fface[2 * dim + 1],
                            &up.qface[2 * dim],
                            &up.fface[2 * dim],
                            dst,
                        );
                    }
                    FaceTopo::Boundary {
                        dim,
                        cell,
                        side,
                        kind,
                    } => {
                        let out = &outs[cell];
                        let fi = 2 * dim + side;
                        boundary_face(
                            plan,
                            pde,
                            dim,
                            side,
                            kind,
                            &out.qface[fi],
                            &out.fface[fi],
                            &mut bscratch,
                            dst,
                        );
                    }
                });
            }
        });
        tr.span("replay.correct", step, |p| {
            let mut corr = CorrectorScratch::new(plan);
            for (c, q) in state.iter_mut().enumerate() {
                tr.span("corrector.cell", p, |_| {
                    apply_volume(plan, pde, &mut corr, &outs[c], q);
                    for face in Face::ALL {
                        let id = splan.cell_faces(c)[face.index()];
                        apply_face(
                            plan,
                            face.dim,
                            face.side,
                            &f_star[id * face_len..(id + 1) * face_len],
                            &outs[c].fface[face.index()],
                            q,
                        );
                    }
                });
            }
        });
    });
    state
}

/// Largest elementwise difference between the replayed states and the
/// engine's, relative to the engine state's largest magnitude.
fn replay_mismatch<P: LinearPde>(engine: &Engine<P>, replay: &[AlignedVec]) -> f64 {
    let mut diff: f64 = 0.0;
    let mut scale: f64 = 0.0;
    for (c, q) in replay.iter().enumerate() {
        for (a, b) in q.iter().zip(engine.cell_state(c)) {
            diff = diff.max((a - b).abs());
            scale = scale.max(b.abs());
        }
    }
    if diff == 0.0 {
        0.0
    } else {
        diff / scale
    }
}

/// The engine's reference for the replay: the problem stepped globally,
/// at `t = 0`.
fn replay_twin<P: LinearPde + Clone>(problem: &Problem<P>) -> Engine<P> {
    let mut twin = Engine::new(
        problem.mesh(),
        problem.pde.clone(),
        problem.global_twin_config(),
    );
    twin.set_initial(|x, q| (problem.init)(x, q));
    twin
}

/// Replays `reps` traced steps (after an untraced warm-up) and checks the
/// replay against `Engine::step` on the same state.
pub fn replay_check<P: LinearPde + Clone>(
    problem: &Problem<P>,
    reps: usize,
    tr: &Tracer,
    outcome: &mut Outcome,
) {
    let mut twin = replay_twin(problem);
    let splan = shard_plan(&twin);
    let dt = twin.max_dt();
    let replayed = replay_step(&twin, &splan, dt, &Tracer::new(false), None);
    for _ in 0..reps {
        black_box(replay_step(&twin, &splan, dt, tr, None));
    }
    twin.step(dt);
    let rel = replay_mismatch(&twin, &replayed);
    outcome.check(rel <= REPLAY_TOL, || {
        format!(
            "{}: layer replay differs from Engine::step by {rel:e} (relative)",
            problem.scenario
        )
    });
}

/// Scheme-size configuration of an engine's plan, as `Engine::new`
/// derives it.
fn stp_config<P: LinearPde>(config: &EngineConfig, pde: &P) -> StpConfig {
    let mut cfg = StpConfig::new(config.order, pde.num_quantities());
    if let Some(w) = config.width {
        cfg = cfg.with_width(w);
    }
    cfg.rule = config.rule;
    cfg
}

/// Median of `reps` timed calls (spans named `name`) after one warm-up.
fn timed<R>(tr: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    for _ in 0..reps {
        tr.span(name, None, |_| black_box(f()));
    }
    median(&tr.self_times(name))
}

/// Median seconds of one `Engine::step` under the current thread count
/// (the stable dt does not change between steps: it depends only on the
/// material).
fn step_time<P: LinearPde>(engine: &mut Engine<P>, tr: &Tracer, name: &str, reps: usize) -> f64 {
    let dt = engine.max_dt();
    timed(tr, name, reps, || engine.step(dt))
}

/// Runs every per-layer probe on `problem` and sets the per-layer
/// metrics (all but the run-level `jobs.setup_share` and
/// `trace.overhead_share`).
pub fn probe<P: LinearPde + Clone>(
    problem: &Problem<P>,
    sizes: ProbeSizes,
    tr: &Tracer,
    outcome: &mut Outcome,
    m: &mut Metrics,
) {
    let reps = sizes.reps;
    let threads = par::num_threads();
    let config = problem.config;
    let mesh = problem.mesh();
    let cells = problem.cells();

    // tune / engine construction.
    let cfg = stp_config(&config, &problem.pde);
    let tune_s = timed(tr, "tune.tune_plan", reps, || {
        tune_plan(
            cfg,
            mesh.cell_size(),
            config.kernel,
            &problem.pde,
            config.tuning,
            config.block_size,
        )
    });
    m.set("tune.plan_ms", tune_s * 1e3, "ms");
    let new_s = timed(tr, "engine.new", reps, || {
        Engine::new(mesh.clone(), problem.pde.clone(), config)
    });
    m.set("engine.new_ms", new_s * 1e3, "ms");

    // Whole-engine steps at the pool's thread count and at one thread.
    let mut engine = problem.setup(&Tracer::new(false), None);
    m.set("tune.block_size", engine.block_size() as f64, "count");
    let max_dt_s = timed(tr, "engine.max_dt", reps, || engine.max_dt());
    m.set("engine.max_dt_us", max_dt_s * 1e6, "us");
    let step_s = step_time(&mut engine, tr, "engine.step", reps);
    par::set_num_threads(1);
    let step_1t_s = step_time(&mut engine, tr, "engine.step_1t", reps);
    par::set_num_threads(threads);
    m.set("engine.step_ms", step_s * 1e3, "ms");
    m.set("engine.step_ms_1t", step_1t_s * 1e3, "ms");
    m.set(
        "pool.parallel_efficiency",
        step_1t_s / (threads as f64 * step_s),
        "1",
    );
    for name in STEP_KERNELS {
        let Some(kernel) = KernelRegistry::global().resolve(name) else {
            outcome.check(false, || format!("kernel `{name}` is not registered"));
            continue;
        };
        let mut e = Engine::new(
            mesh.clone(),
            problem.pde.clone(),
            config.with_kernel(kernel),
        );
        e.set_initial(|x, q| (problem.init)(x, q));
        let s = step_time(&mut e, tr, &format!("engine.step.{name}"), reps);
        m.set(format!("engine.step_ms.{name}"), s * 1e3, "ms");
    }

    // Predictor kernels on the live state at the engine's block size.
    let plan = &engine.plan;
    let bs = engine.block_size();
    let dt = engine.max_dt();
    let mut block = CellBlock::new(plan, bs);
    let mut outs: Vec<StpOutputs> = (0..bs).map(|_| StpOutputs::new(plan)).collect();
    let sources = vec![None; bs];
    let mut stp_us = f64::NAN;
    let untraced = Tracer::new(false);
    for kernel in KernelRegistry::global().kernels() {
        let name = format!("stp.run_block.{}", kernel.name());
        let mut scratch = kernel.make_block_scratch(plan, bs);
        for pass in 0..=reps {
            let sink = if pass == 0 { &untraced } else { tr };
            for start in (0..cells).step_by(bs) {
                let len = bs.min(cells - start);
                block.clear();
                for c in start..start + len {
                    block.push(engine.cell_state(c));
                }
                sink.span(&name, None, |_| {
                    let inputs = BlockInputs::new(&block, dt, &sources[..len]);
                    kernel.run_block(
                        plan,
                        &engine.pde,
                        scratch.as_mut(),
                        &inputs,
                        &mut outs[..len],
                    );
                });
            }
        }
        let us = tr.stats().get(&name).map_or(f64::NAN, |s| s.self_s) * 1e6 / (reps * cells) as f64;
        m.set(
            format!("kernels.stp_us_per_cell.{}", kernel.name()),
            us,
            "us",
        );
        m.set(
            format!("kernels.footprint_kib.{}", kernel.name()),
            kernel.footprint_bytes(plan) as f64 / 1024.0,
            "KiB",
        );
        if kernel.name() == config.kernel.name() {
            stp_us = us;
        }
    }
    let cost = UserFunctionCost {
        flux_flops: problem.pde.flux_flops(),
        ncp_flops: problem.pde.ncp_flops(),
        vectorized: problem.pde.has_vectorized_user_functions(),
    };
    let stp_gflops = stp_useful_flops(plan, cost) as f64 / (stp_us * 1e-6) / 1e9;
    let peak = tr.span("roofline.peak", None, |_| {
        aderdg_perf::roofline::measure_peak_gflops(sizes.peak_ms)
    });
    m.set("kernels.stp_gflops", stp_gflops, "GFlop/s");
    m.set("kernels.peak_gflops", peak, "GFlop/s");
    m.set("kernels.stp_peak_frac", stp_gflops / peak, "1");
    let scalar = KernelVariant::ALL
        .iter()
        .find(|v| v.key() == config.kernel.name())
        .map_or(f64::NAN, |&v| {
            stp_pack_counts(plan, v, cost).scalar_fraction()
        });
    m.set("kernels.scalar_flop_share", scalar, "1");

    // The AoSoA GEMM shapes on the tuner's chosen backend: the fused
    // x-derivative (shared Dᵀ, row-stacked over the block) and the
    // shared-operator z slab (one D over every cell of the block).
    let mut rng = Lcg::new(0x6E_4D);
    let (b0, s0) = plan.aosoa_batches(0);
    let shapes = [
        (
            "gemm.aosoa_d0_fused",
            &plan.gemm_aosoa[0],
            GemmBatch::shared_b(bs * b0, s0, s0),
        ),
        (
            "gemm.aosoa_shared_op",
            &plan.gemm_aosoa[2],
            GemmBatch::shared_a(bs, plan.aosoa.len(), plan.aosoa.len()),
        ),
    ];
    for (name, gemm, batch) in shapes {
        let (la, lb, lc) = batch.required_lens(gemm.spec());
        let a = rng.vec(la.max(1), -1.0, 1.0);
        let b = rng.vec(lb.max(1), -1.0, 1.0);
        let mut c = vec![0.0; lc.max(1)];
        let (a, b) = if name.ends_with("fused") {
            (a, plan.diff_t_padded.clone())
        } else {
            (plan.basis.diff.clone(), b)
        };
        let mut calls = 0u64;
        let start = Instant::now();
        tr.span(name, None, |_| {
            while calls == 0 || start.elapsed().as_secs_f64() < sizes.gemm_s {
                gemm.execute_batched(&batch, &a, &b, &mut c);
                calls += 1;
            }
        });
        let secs = tr.self_times(name).last().copied().unwrap_or(f64::NAN);
        let gflops = (batch.flops(gemm.spec()) * calls) as f64 / secs / 1e9;
        m.set(format!("{name}.gflops"), black_box(gflops), "GFlop/s");
    }

    // Layer replay: Riemann and corrector per-unit costs, and the check
    // that the replay does the engine's work.
    replay_check(problem, reps, tr, outcome);
    let stats = tr.stats();
    let mean = |name: &str| stats.get(name).map_or(f64::NAN, |s| s.mean_self_s());
    let ns_per_face = mean("riemann.face") * 1e9;
    let corr_us = mean("corrector.cell") * 1e6;
    m.set("riemann.ns_per_face", ns_per_face, "ns");
    m.set("corrector.us_per_cell", corr_us, "us");

    // The step's task graph: shard pipeline or LTS macro cycle.
    let lts = config.stepping == SteppingMode::Lts;
    let (indegree, dependents, faces_per_step) = if lts {
        let lplan = engine.lts_plan();
        let graph = LtsGraph::build(lplan);
        let lmax = lplan.num_levels() - 1;
        let faces: usize = (0..lplan.num_faces())
            .map(|id| 1usize << (lmax - lplan.face_cadence(id) as usize))
            .sum();
        (
            graph.indegree().to_vec(),
            graph.dependents().to_vec(),
            faces,
        )
    } else {
        let splan = shard_plan(&engine);
        let ns = splan.num_shards();
        let mut indegree = vec![0usize; 3 * ns];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); 3 * ns];
        for s in 0..ns {
            for &d in splan.flux_deps(s) {
                dependents[d].push(ns + s);
                indegree[ns + s] += 1;
            }
            for &d in splan.apply_deps(s) {
                dependents[ns + d].push(2 * ns + s);
                indegree[2 * ns + s] += 1;
            }
        }
        (indegree, dependents, splan.num_faces())
    };
    let tasks = indegree.len();
    let graph_s = timed(tr, "par.run_graph_init", reps, || {
        par::run_graph_init(
            &indegree,
            &dependents,
            || (),
            |_, t| {
                black_box(t);
            },
        )
    });
    m.set("pool.task_overhead_us", graph_s * 1e6 / tasks as f64, "us");
    m.set("pool.tasks_per_step", tasks as f64, "count");
    m.set("riemann.faces_per_step", faces_per_step as f64, "count");

    // Orchestration and waiting: the step minus its replayed layer work
    // shared over the threads.
    let updates = updates_per_step(&engine);
    let layer_ms =
        (stp_us * updates + ns_per_face * 1e-3 * faces_per_step as f64 + corr_us * updates) * 1e-3;
    m.set(
        "engine.unattributed_ms",
        step_s * 1e3 - layer_ms / threads as f64,
        "ms",
    );

    // LTS census of the problem's initial state (one level for a
    // uniform medium), rebuilt through the public mesh functions and
    // checked against the engine's own clustering.
    let fresh = problem.setup(&Tracer::new(false), None);
    let dts: Vec<f64> = (0..cells).map(|c| cell_dt(&fresh, c)).collect();
    let shard_size = config
        .shard_size
        .unwrap_or_else(|| auto_shard_size(cells, fresh.block_size()));
    let mut levels = Vec::new();
    let build_s = timed(tr, "mesh.lts_build", reps, || {
        levels = assign_levels(&fresh.mesh, &dts, MAX_LTS_LEVEL);
        LtsGraph::build(&ShardPlan::with_levels(&fresh.mesh, shard_size, &levels))
    });
    let engine_plan = fresh.lts_plan();
    let agrees = (0..engine_plan.num_shards()).all(|s| {
        engine_plan
            .shard_range(s)
            .all(|c| levels[c] == engine_plan.shard_level(s))
    });
    outcome.check(agrees, || {
        format!(
            "{}: LTS levels rebuilt from the public mesh functions differ from the engine's",
            problem.scenario
        )
    });
    let num_levels = levels.iter().copied().max().map_or(0, |l| l as usize + 1);
    m.set("mesh.lts.levels", num_levels as f64, "count");
    for level in 0..CENSUS_LEVELS {
        let n = levels.iter().filter(|&&l| l as usize == level).count();
        m.set(format!("mesh.lts.cells_level{level}"), n as f64, "count");
    }
    let updates_macro: usize = levels
        .iter()
        .map(|&l| 1usize << (num_levels - 1 - l as usize))
        .sum();
    m.set(
        "mesh.lts.updates_per_macro_step",
        updates_macro as f64,
        "count",
    );
    m.set("mesh.lts.build_ms", build_s * 1e3, "ms");
}
