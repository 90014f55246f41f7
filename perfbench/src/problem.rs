//! The stepping problems, built through the public `Engine` API from the
//! registered scenarios' own definitions.
//!
//! Each problem resolves its engine configuration with
//! `scenario::resolve` — the registered defaults plus the benchmark's
//! overrides — and re-states the scenario's mesh, PDE and initial
//! condition, so [`check_matches_scenario`] can prove the two agree.

use crate::trace::{SpanId, Tracer};
use aderdg_core::scenario::{resolve, RunRequest, Scenario, ScenarioInfo};
use aderdg_core::scenarios::{AcousticLayered, ElasticStress};
use aderdg_core::{Engine, EngineConfig, SteppingMode};
use aderdg_mesh::{BoundaryKind, StructuredMesh};
use aderdg_pde::{Acoustic, Elastic, ElasticPlaneWave, ExactSolution, LinearPde, Material};

/// Initial condition over physical coordinates (fills all stored
/// quantities, parameters included).
pub type InitFn = Box<dyn Fn([f64; 3], &mut [f64]) + Send + Sync>;

/// One stepping problem: a resolved engine configuration plus the
/// physics needed to build and check it.
pub struct Problem<P: LinearPde + Clone> {
    /// Registry key of the scenario this problem re-states.
    pub scenario: &'static str,
    /// Resolved engine configuration.
    pub config: EngineConfig,
    /// Mesh dimensions.
    pub dims: [usize; 3],
    /// Boundary kind on every side of the unit cube.
    pub boundary: BoundaryKind,
    /// Simulated end time of one solve.
    pub t_end: f64,
    /// Steps of a step-bounded (smoke) run, `None` for a time-bounded one.
    pub fixed_steps: Option<usize>,
    /// The PDE system.
    pub pde: P,
    /// Initial condition.
    pub init: InitFn,
    /// Exact solution, with the amplitude the error is normalised by.
    pub exact: Option<(Box<dyn ExactSolution>, f64)>,
    /// Index of a quantity whose mesh integral the boundaries conserve.
    pub conserved: Option<usize>,
}

impl<P: LinearPde + Clone> std::fmt::Debug for Problem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("scenario", &self.scenario)
            .field("config", &self.config)
            .field("dims", &self.dims)
            .field("t_end", &self.t_end)
            .finish_non_exhaustive()
    }
}

impl<P: LinearPde + Clone> Problem<P> {
    /// The problem's mesh.
    pub fn mesh(&self) -> StructuredMesh {
        StructuredMesh::new(self.dims, [0.0; 3], [1.0; 3], [self.boundary; 3])
    }

    /// Number of mesh cells.
    pub fn cells(&self) -> usize {
        self.dims.iter().product()
    }

    /// Builds the engine ready to step: `Engine::new`, `set_initial`,
    /// and the first `max_dt` (which builds the clusters under LTS).
    /// Every call is a span under `parent`.
    pub fn setup(&self, tr: &Tracer, parent: Option<SpanId>) -> Engine<P> {
        let mut engine = tr.span("engine.new", parent, |_| {
            Engine::new(self.mesh(), self.pde.clone(), self.config)
        });
        tr.span("engine.set_initial", parent, |_| {
            engine.set_initial(|x, q| (self.init)(x, q))
        });
        tr.span("engine.first_max_dt", parent, |_| {
            std::hint::black_box(engine.max_dt())
        });
        engine
    }

    /// The same problem stepped globally (the layer replay's reference
    /// engine; identical for a globally stepped problem).
    pub fn global_twin_config(&self) -> EngineConfig {
        self.config.with_stepping(SteppingMode::Global)
    }
}

/// The merged configuration of a registered scenario under `req`.
fn resolved(
    info: &ScenarioInfo,
    req: &RunRequest,
) -> Result<(EngineConfig, [usize; 3], f64, Option<usize>), String> {
    let r = resolve(info, req).map_err(|e| format!("{}: {e}", info.name))?;
    Ok((r.config, r.dims, r.t_end, r.fixed_steps))
}

/// `elastic_stress`: the paper's m = 21 elastic P-wave on the periodic
/// unit cube. `amplitude` is 0.1 in the registered scenario.
pub fn elastic_stress(req: &RunRequest, amplitude: f64) -> Result<Problem<Elastic>, String> {
    let info = ElasticStress.info();
    let (config, dims, t_end, fixed_steps) = resolved(&info, req)?;
    let mat = Material {
        rho: 2.7,
        cp: 6.0,
        cs: 3.46,
    };
    let wave = ElasticPlaneWave {
        direction: [0.0, 1.0, 0.0],
        polarization: [0.0, 1.0, 0.0],
        amplitude,
        wavenumber: 1.0,
        material: mat,
    };
    let init_wave = wave.clone();
    Ok(Problem {
        scenario: info.name,
        config,
        dims,
        boundary: BoundaryKind::Periodic,
        t_end,
        fixed_steps,
        pde: Elastic,
        init: Box::new(move |x, q| {
            init_wave.evaluate(x, 0.0, q);
            Elastic::set_params(q, mat, &Elastic::IDENTITY_JAC);
        }),
        exact: Some((Box::new(wave), amplitude)),
        conserved: None,
    })
}

/// `acoustic_layered`: a Gaussian pressure pulse centred at `center`
/// (0.6 in the registered scenario) in a rigid-walled box whose
/// `x < 0.25` layer is ten times stiffer. The walls conserve the
/// pressure integral.
pub fn acoustic_layered(req: &RunRequest, center: [f64; 3]) -> Result<Problem<Acoustic>, String> {
    let info = AcousticLayered.info();
    let (config, dims, t_end, fixed_steps) = resolved(&info, req)?;
    Ok(Problem {
        scenario: info.name,
        config,
        dims,
        boundary: BoundaryKind::Reflective,
        t_end,
        fixed_steps,
        pde: Acoustic,
        init: Box::new(move |x, q| {
            q.fill(0.0);
            let r2: f64 = x
                .iter()
                .zip(&center)
                .map(|(&c, &o)| (c - o) * (c - o))
                .sum();
            q[aderdg_pde::acoustic::P] = (-r2 / (2.0 * 0.1 * 0.1)).exp();
            let bulk = if x[0] < 0.25 { 100.0 } else { 1.0 };
            Acoustic::set_params(q, 1.0, bulk);
        }),
        exact: None,
        conserved: Some(aderdg_pde::acoustic::P),
    })
}

/// Runs `problem` (built from a smoke request) through the public
/// `Engine` API exactly as the scenario driver steps a smoke run, and
/// checks its final L2 norm against `Scenario::run` on the same request.
pub fn check_matches_scenario<P: LinearPde + Clone>(
    problem: &Problem<P>,
    req: &RunRequest,
) -> Result<(), String> {
    let scenario = aderdg_core::ScenarioRegistry::global()
        .resolve(problem.scenario)
        .ok_or_else(|| format!("scenario `{}` is not registered", problem.scenario))?;
    let reference = scenario
        .run(req)
        .map_err(|e| format!("{}: {e}", problem.scenario))?;
    let mut engine = problem.setup(&Tracer::new(false), None);
    match problem.fixed_steps {
        Some(steps) => {
            for _ in 0..steps {
                let dt = engine.max_dt();
                engine.step(dt);
            }
        }
        None => {
            engine
                .advance_until(problem.t_end, |_| true)
                .map_err(|e| e.to_string())?;
        }
    }
    let (ours, theirs) = (engine.l2_norm(), reference.l2_norm);
    let rel = (ours - theirs).abs() / theirs.abs().max(f64::MIN_POSITIVE);
    if engine.steps == reference.steps && rel <= 1e-12 {
        Ok(())
    } else {
        Err(format!(
            "{}: harness setup diverges from Scenario::run (L2 norm {ours:e} after {} steps vs \
             {theirs:e} after {}, rel {rel:e})",
            problem.scenario, engine.steps, reference.steps
        ))
    }
}
