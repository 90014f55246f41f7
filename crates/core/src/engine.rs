//! The ADER-DG engine: mesh-level orchestration of predictor, Riemann
//! solve and corrector (the Rust counterpart of the paper's TBB task
//! parallelism within one MPI rank).
//!
//! One step body runs every configuration: the mesh is partitioned into
//! contiguous cell shards ([`aderdg_mesh::ShardPlan`]), each face's
//! Rusanov flux is solved **exactly once** (eq. 5) into a face-indexed
//! buffer, and per-shard predictor → face-sweep → apply tasks
//! ([`aderdg_mesh::LtsGraph`]) run on the persistent pool's dependency
//! scheduler ([`par::run_graph_init`]) with no global
//! predictor→corrector barrier: a shard's face sweep starts as soon as
//! its own and its neighbouring shards' predictors finish.
//!
//! [`SteppingMode`] only decides how cells are assigned to dt levels.
//! Global stepping puts every cell on level 0, so the task graph has one
//! predict/flux/apply triple per shard; clustered local time stepping
//! assigns levels from the state's per-cell CFL dt and unrolls a whole
//! macro cycle of sub-windows into the same graph (`docs/LTS.md`).

use crate::block::{BlockInputs, CellBlock};
use crate::corrector::{apply_face, apply_volume, CorrectorScratch};
use crate::kernels::{StpInputs, StpKernel, StpOutputs, StpScratch};
use crate::par;
use crate::plan::{CellSource, KernelVariant, StpConfig, StpPlan};
use crate::registry::KernelRegistry;
use crate::riemann::{boundary_face, rusanov_face, BoundaryScratch};
use crate::tune::{tune_plan, TuneReport, TuningMode};
use aderdg_mesh::{
    assign_levels, Face, FaceTopo, LtsGraph, LtsTask, ShardPlan, StructuredMesh, MAX_LTS_LEVEL,
};
use aderdg_pde::{LinearPde, PointSource};
use aderdg_tensor::AlignedVec;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, RwLock};

/// Which time-stepping strategy the engine runs. Both run the same
/// shard task graph; the mode only decides how cells are assigned to dt
/// levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteppingMode {
    /// Every cell advances at the one global CFL-stable dt: every cell
    /// is on level 0, so the task graph does not depend on the state,
    /// and [`Engine::max_dt`] recomputes the dt from the state every
    /// step. The default, and the reference the LTS path is pinned
    /// against.
    Global,
    /// Clustered local time stepping: cells are bucketed into
    /// power-of-two dt-clusters ([`aderdg_mesh::assign_levels`]) and
    /// one [`Engine::step`] advances a whole **macro cycle** on the
    /// shard task graph — coarse clusters take fewer, longer sub-steps.
    /// `max_dt` returns the macro step (`2^Lmax` × the global stable
    /// dt), so drive loops are unchanged. See `docs/LTS.md`.
    Lts,
}

impl SteppingMode {
    /// Parses a specification-file / environment value
    /// (`global` | `lts`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "global" => Some(Self::Global),
            "lts" => Some(Self::Lts),
            _ => None,
        }
    }

    /// The process default: `ADERDG_STEPPING` if set (the CI matrix
    /// forces the LTS path through it), else [`SteppingMode::Global`].
    ///
    /// # Panics
    /// If `ADERDG_STEPPING` is set to an unknown value — configuration
    /// typos should fail loudly, not silently fall back.
    pub fn default_from_env() -> Self {
        match std::env::var("ADERDG_STEPPING") {
            Ok(v) => Self::parse(&v)
                // PANIC-OK: configuration typos fail loudly by policy
                // (see doc comment above).
                .unwrap_or_else(|| panic!("unknown ADERDG_STEPPING `{v}` (global|lts)")),
            Err(_) => Self::Global,
        }
    }

    /// The specification-file spelling (inverse of
    /// [`SteppingMode::parse`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            Self::Global => "global",
            Self::Lts => "lts",
        }
    }
}

/// A degenerate CFL step: [`Engine::max_dt`] came back zero, negative or
/// non-finite (an infinite wavespeed, a NaN in the state). Returned by
/// [`Engine::advance_until`]; [`Engine::run_until`] panics with the same
/// message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegenerateDt {
    /// The offending time step.
    pub dt: f64,
}

impl std::fmt::Display for DegenerateDt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degenerate time step {}", self.dt)
    }
}

impl std::error::Error for DegenerateDt {}

/// Engine-level configuration.
///
/// Every knob has a sensible default from [`EngineConfig::new`]; the
/// builder methods override them individually. When to change what:
///
/// * **`order`** — accuracy vs cost. Each increment multiplies the
///   per-cell work roughly by `(N+1)⁴/N⁴` but raises the convergence
///   rate; the paper evaluates orders 2–12. Raise it (and coarsen the
///   mesh) for smooth solutions; lower it for discontinuous data.
/// * **`kernel`** — which Space-Time Predictor variant runs; resolved
///   from the [`KernelRegistry`]. `splitck` (the default) is the best
///   all-round cache-aware variant; `aosoa_splitck` wins once the
///   vectorized user functions dominate (high order, many quantities);
///   `generic` is the readable reference, useful for debugging.
/// * **`cfl`** — time-step safety factor (≤ 0.45 empirically for the
///   3-D scheme). Lower it only if a run blows up (strongly varying
///   material parameters); raising it risks instability.
/// * **`width`** — SIMD padding/dispatch width. Leave at `None` (host
///   width) except to reproduce the paper's narrower-build comparisons
///   (e.g. AVX2 padding on an AVX-512 machine, Fig. 4).
/// * **`rule`** — quadrature rule. Gauss-Legendre (default) is the
///   paper's choice; Gauss-Lobatto includes the element boundary in the
///   node set, trading a slightly worse conditioning for cheaper face
///   coupling in schemes that exploit it.
/// * **`block_size`** — cells per predictor block. `None` (default)
///   leaves the choice to the tuner (see `tuning`): big blocks amortize
///   operator loads (the win of the batched pipeline), but a block that
///   outgrows L2 pays more in re-fetched state than it saves. Set it
///   explicitly to `1` to force the per-cell path or when benchmarking
///   the sweet spot with the `block_sweep` bench binary.
/// * **`tuning`** — how the block size and GEMM backend are picked when
///   not overridden. `model` (default) replays the kernel's block access
///   pattern through a cache simulator and takes the cheapest predicted
///   candidate — deterministic, no timing involved. `static` reproduces
///   the original [`auto_block_size`] footprint heuristic and the
///   widest-supported backend (hermetic CI baseline). `probe`
///   additionally times real `run_block` calls and ranks GEMM backends
///   by measured speed — fastest, but machine-dependent. The decision is
///   recorded in [`Engine::tune_report`].
/// * **`shard_size`** — cells per shard of the step's task graph.
///   `None` (default) targets enough shards for pipelining while
///   keeping shard boundaries aligned to predictor blocks
///   ([`auto_shard_size`]). Smaller shards expose more overlap, larger
///   shards amortize more scheduling; the pick never changes results.
/// * **`stepping`** — `global` (default; overridable process-wide via
///   `ADERDG_STEPPING`) steps every cell at the global CFL dt; `lts`
///   runs clustered local time stepping ([`SteppingMode`]).
#[derive(Clone, Copy)]
pub struct EngineConfig {
    /// STP kernel to run, resolved from the [`KernelRegistry`].
    pub kernel: &'static dyn StpKernel,
    /// Scheme order (nodes per dimension).
    pub order: usize,
    /// CFL safety factor (≤ 1).
    pub cfl: f64,
    /// SIMD width for padding/dispatch (`None` = host width).
    pub width: Option<aderdg_tensor::SimdWidth>,
    /// Quadrature/interpolation rule.
    pub rule: aderdg_quadrature::QuadratureRule,
    /// Cells per predictor block (`None` = let the tuner decide, see
    /// [`TuningMode`]).
    pub block_size: Option<usize>,
    /// Plan-time tuning strategy for the block size and GEMM backend.
    pub tuning: TuningMode,
    /// Cells per shard of the step's task graph (`None` = automatic, see
    /// [`auto_shard_size`]).
    pub shard_size: Option<usize>,
    /// Time-stepping strategy (see [`SteppingMode`]).
    pub stepping: SteppingMode,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("kernel", &self.kernel.name())
            .field("order", &self.order)
            .field("cfl", &self.cfl)
            .field("width", &self.width)
            .field("rule", &self.rule)
            .field("block_size", &self.block_size)
            .field("tuning", &self.tuning)
            .field("shard_size", &self.shard_size)
            .field("stepping", &self.stepping)
            .finish()
    }
}

impl EngineConfig {
    /// Default configuration: SplitCK at the given order, CFL factor 0.4.
    ///
    /// The CFL factor multiplies the estimate
    /// `1/((2N−1)·Σ_d s_d/Δx_d)`; empirically the 3-D ADER-DG scheme with
    /// Rusanov fluxes is stable up to ≈ 0.45 of it (consistent with the
    /// ~0.33–0.45 stability factors reported for ADER-DG in the
    /// literature), so 0.4 leaves a safety margin.
    pub fn new(order: usize) -> Self {
        Self {
            kernel: KernelVariant::SplitCk.kernel(),
            order,
            cfl: 0.4,
            width: None,
            rule: aderdg_quadrature::QuadratureRule::GaussLegendre,
            block_size: None,
            tuning: TuningMode::default(),
            shard_size: None,
            stepping: SteppingMode::default_from_env(),
        }
    }

    /// Selects a kernel by registry object (builder style).
    pub fn with_kernel(mut self, kernel: &'static dyn StpKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// Selects a kernel by registry key (builder style).
    ///
    /// # Panics
    /// If no kernel of that name is registered; use
    /// [`KernelRegistry::resolve`] directly for fallible lookup.
    pub fn with_kernel_name(mut self, name: &str) -> Self {
        self.kernel = KernelRegistry::global()
            .resolve(name)
            // PANIC-OK: documented contract (`# Panics` above); fallible
            // lookup is `KernelRegistry::resolve`.
            .unwrap_or_else(|| panic!("no registered kernel named `{name}`"));
        self
    }

    /// Selects one of the paper's four variants (builder style).
    pub fn with_variant(mut self, variant: KernelVariant) -> Self {
        self.kernel = variant.kernel();
        self
    }

    /// Selects the quadrature rule (builder style).
    pub fn with_rule(mut self, rule: aderdg_quadrature::QuadratureRule) -> Self {
        self.rule = rule;
        self
    }

    /// Selects the SIMD width (builder style).
    pub fn with_width(mut self, width: aderdg_tensor::SimdWidth) -> Self {
        self.width = Some(width);
        self
    }

    /// Fixes the predictor block size (builder style); `1` forces the
    /// per-cell path.
    ///
    /// # Panics
    /// If `block_size` is zero.
    pub fn with_block_size(mut self, block_size: usize) -> Self {
        assert!(block_size >= 1, "block size must be at least 1");
        self.block_size = Some(block_size);
        self
    }

    /// Selects the plan-time tuning strategy (builder style).
    pub fn with_tuning(mut self, tuning: TuningMode) -> Self {
        self.tuning = tuning;
        self
    }

    /// Fixes the shard size of the step's task graph (builder style).
    ///
    /// # Panics
    /// If `shard_size` is zero.
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        assert!(shard_size >= 1, "shard size must be at least 1");
        self.shard_size = Some(shard_size);
        self
    }

    /// Selects the time-stepping strategy (builder style).
    pub fn with_stepping(mut self, stepping: SteppingMode) -> Self {
        self.stepping = stepping;
        self
    }
}

/// Cache budget the *static* block-size heuristic targets: half of a
/// typical 1 MiB per-core L2, leaving the other half for the cell states
/// and predictor outputs streaming through the block.
pub const BLOCK_L2_BUDGET_BYTES: usize = 512 * 1024;

/// Largest block any tuning mode picks: past this, the amortization of
/// the operator loads has long saturated and bigger blocks only reduce
/// the parallel grain count.
pub const BLOCK_SIZE_CAP: usize = 16;

/// The *static* block-size heuristic (`tuning = static`): the largest
/// `B ≤ 16` whose block working set `B · footprint` fits a 512 KiB L2
/// budget, and at least `1`, from the kernel's per-cell scratch footprint
/// ([`StpKernel::footprint_bytes`]). Low-footprint kernels (SplitCK at
/// moderate order) get wide blocks; the generic kernel's `O(N⁴m)`
/// temporaries quickly force `B = 1`.
///
/// The default `model` tuning mode replaces this constant-budget guess
/// with a cache-simulated ranking (see [`crate::tune`]); the heuristic
/// remains both the hermetic fallback and the answer for kernels whose
/// `run_block` is the per-cell fallback.
pub fn auto_block_size(footprint_bytes: usize) -> usize {
    (BLOCK_L2_BUDGET_BYTES / footprint_bytes.max(1)).clamp(1, BLOCK_SIZE_CAP)
}

/// Shard count the automatic shard size aims for: three tasks per shard
/// gives ~144 schedulable tasks — enough slack to keep 16 workers busy
/// through the dependency waves without shrinking shards into scheduling
/// noise.
pub const SHARD_COUNT_TARGET: usize = 48;

/// The automatic shard size of the step's task graph: cells per shard
/// targeting [`SHARD_COUNT_TARGET`] shards, rounded **up** to a multiple
/// of the predictor block size so shard boundaries never split a cell
/// block (under global stepping the block partition — and therefore
/// every batched kernel's floating-point result — stays the one of
/// blocking the whole mesh at once).
///
/// Deliberately independent of the worker-thread count: the shard
/// partition must never leak into results, and
/// `tests/determinism.rs` pins step output bit-identical across 1/4/16
/// threads.
pub fn auto_shard_size(cells: usize, block_size: usize) -> usize {
    let target = cells.div_ceil(SHARD_COUNT_TARGET).max(1);
    target.div_ceil(block_size.max(1)) * block_size.max(1)
}

/// A point probe recording the evolved quantities over time.
#[derive(Debug, Clone)]
pub struct Receiver {
    /// Physical probe position.
    pub position: [f64; 3],
    cell: usize,
    /// Per-dimension basis values at the probe's reference coordinates.
    phi: [Vec<f64>; 3],
    /// Recorded `(time, values)` samples.
    pub records: Vec<(f64, Vec<f64>)>,
}

/// The time-stepping engine over a structured mesh.
pub struct Engine<P: LinearPde> {
    /// The mesh.
    pub mesh: StructuredMesh,
    /// The PDE system.
    pub pde: P,
    /// The kernel plan (shared by all cells — uniform mesh).
    pub plan: StpPlan,
    /// Engine configuration.
    pub config: EngineConfig,
    /// Per-cell DOFs, padded AoS.
    state: Vec<AlignedVec>,
    /// Per-cell predictor outputs of the current step.
    outputs: Vec<StpOutputs>,
    /// Registered point sources by containing cell.
    sources: Vec<(usize, PointSource)>,
    /// Per-cell source projections: spatial `node_coeffs` computed once at
    /// registration; only the time-dependent `derivs` are refreshed each
    /// step.
    cell_sources: BTreeMap<usize, CellSource>,
    /// Registered receiver probes.
    pub receivers: Vec<Receiver>,
    /// Resolved predictor block size (config override or tuner pick).
    block_size: usize,
    /// What the plan-time tuner decided (block size, GEMM backend) and
    /// the candidates it weighed.
    tune: TuneReport,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: usize,
    /// The step schedule (level-aware shard plan, task graph, base dt),
    /// built lazily at the first [`Engine::max_dt`] or step. Under
    /// [`SteppingMode::Lts`] it derives from the current state's
    /// per-cell stable-dt field and is invalidated whenever the state is
    /// replaced wholesale; under global stepping it never changes.
    lts: OnceLock<LtsMeta>,
    /// Step runtime buffers (face-flux storage, plus sub-window
    /// accumulators and halo half-window outputs when there are several
    /// levels), allocated at the first step.
    lts_bufs: Option<LtsBufs>,
    /// Per-cluster `(time, sub_steps)` clocks, indexed by cluster level.
    /// Empty until the first LTS step (always empty under global
    /// stepping); serialized through checkpoints so
    /// a resumed run continues them exactly.
    lts_clocks: Vec<(f64, u64)>,
}

impl<P: LinearPde> std::fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("dims", &self.mesh.dims)
            .field("order", &self.config.order)
            .field("kernel", &self.config.kernel.name())
            .field("stepping", &self.config.stepping)
            .field("block_size", &self.block_size)
            .field("time", &self.time)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

/// The step schedule: the level-aware shard partition, the macro task
/// graph over it, and (under LTS) the level-0 sub-step length. Under
/// global stepping every cell is on level 0; under LTS the levels derive
/// deterministically from the state the engine held when it was built.
struct LtsMeta {
    /// Level-aware shard partition (shards are level-uniform).
    plan: ShardPlan,
    /// The macro-cycle task graph (one predict/apply pair per shard per
    /// sub-window, one flux sweep per shard per owned-face slot; one
    /// triple per shard when there is a single level).
    graph: LtsGraph,
    /// Under LTS, the stable dt of the finest cluster — the global CFL
    /// dt when the levels were assigned; `max_dt` reports
    /// `dt_base · num_slots` so drive loops step whole macro cycles.
    /// `None` under global stepping, whose dt `max_dt` recomputes from
    /// the state every step.
    dt_base: Option<f64>,
}

/// Step runtime buffers (separate from [`LtsMeta`] so the metadata can be
/// built from `&self` in `max_dt` while the buffers are installed later
/// under `&mut self`).
struct LtsBufs {
    /// Per-shard F* of the *current* sub-window per owned face,
    /// overwritten at each re-solve (`owned_faces × face.len()` doubles
    /// per shard).
    f_star: Vec<RwLock<Vec<f64>>>,
    /// Per-shard F* accumulated over a coarse window for cadence-
    /// mismatched faces: the sub-window-0 solve overwrites, the
    /// sub-window-1 solve adds, and the coarse cell applies the sum —
    /// so the face flux telescopes exactly against the fine cell's two
    /// separate applications. Empty when the plan has one level.
    f_star_acc: Vec<RwLock<Vec<f64>>>,
    /// Per-shard half-window predictor outputs for cells that border a
    /// finer face (the sub-window differencing source). Empty when the
    /// plan has one level.
    halo: Vec<RwLock<HaloShard>>,
}

/// Half-window predictor outputs of one shard's cells that border a
/// finer-cadence face.
struct HaloShard {
    /// Shard-local indices of those cells, ascending.
    cells: Vec<usize>,
    /// Half-dt outputs, parallel to `cells`, rewritten by each of the
    /// shard's predict tasks.
    half: Vec<StpOutputs>,
}

/// The halo of shard `s`: its cells that border a finer-cadence face
/// (none on level 0), each with a half-window output buffer.
fn halo_shard(plan: &StpPlan, splan: &ShardPlan, s: usize) -> HaloShard {
    let level = splan.shard_level(s);
    let range = splan.shard_range(s);
    let cells: Vec<usize> = range
        .clone()
        .filter(|&c| {
            splan
                .cell_faces(c)
                .iter()
                .any(|&id| splan.face_cadence(id) < level)
        })
        .map(|c| c - range.start)
        .collect();
    let half = cells.iter().map(|_| StpOutputs::new(plan)).collect();
    HaloShard { cells, half }
}

/// Splits a flat per-cell buffer into per-shard mutable slices matching
/// `splan.shard_range` (LTS shards are contiguous but not uniform —
/// shard boundaries also break at cluster-level changes, so a plain
/// `chunks_mut` does not apply).
fn shard_slices<'a, T>(splan: &ShardPlan, mut buf: &'a mut [T]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(splan.num_shards());
    for s in 0..splan.num_shards() {
        let (head, tail) = buf.split_at_mut(splan.shard_range(s).len());
        out.push(head);
        buf = tail;
    }
    debug_assert!(buf.is_empty(), "shard ranges must tile the buffer");
    out
}

/// Composes one sub-window face trace of a coarse cell by differencing
/// its full- and half-window predictor runs: the CK Taylor coefficients
/// depend only on `q0`, so the half-dt run's time-integrated trace *is*
/// the first half-window's exactly, and `full − half` the second's,
/// elementwise (trace tensors are time-integrals, hence additive over
/// sub-windows). With ≤ 1-level gradation one halving always suffices.
fn sub_window_trace(
    qtmp: &mut [f64],
    ftmp: &mut [f64],
    full: &StpOutputs,
    half: &StpOutputs,
    fi: usize,
    sub: usize,
) {
    if sub == 0 {
        qtmp.copy_from_slice(&half.qface[fi]);
        ftmp.copy_from_slice(&half.fface[fi]);
    } else {
        let (qf, ff) = (&full.qface[fi], &full.fface[fi]);
        let (qh, fh) = (&half.qface[fi], &half.fface[fi]);
        for i in 0..qtmp.len() {
            qtmp[i] = qf[i] - qh[i];
            ftmp[i] = ff[i] - fh[i];
        }
    }
}

/// Per-worker scratch of the step (one per scheduler worker, reused
/// across that worker's tasks). With several levels it adds a per-cell
/// scratch for halo half-window runs (block scratch may be a different
/// concrete type), created at the worker's first halo run, and one
/// face-trace temp pair for sub-window differencing (at most one side of
/// a face is ever coarse); both stay empty on single-level plans.
struct LtsScratch<'a> {
    stp: Box<dyn StpScratch>,
    cell: Option<Box<dyn StpScratch>>,
    block: CellBlock,
    sources: Vec<Option<&'a CellSource>>,
    corr: CorrectorScratch,
    boundary: BoundaryScratch,
    qtmp: Vec<f64>,
    ftmp: Vec<f64>,
}

/// Looks up a shard's lock guard in a small sorted `(shard, guard)` list
/// (the per-task dependency guards).
fn dep_guard<T>(guards: &[(usize, T)], shard: usize) -> &T {
    let i = guards
        .binary_search_by_key(&shard, |g| g.0)
        // PANIC-OK: internal invariant — the static task graph listed
        // every shard this task may read.
        .expect("shard not in the task's dependency set");
    &guards[i].1
}

impl<P: LinearPde> Engine<P> {
    /// Builds an engine; the plan is derived from the mesh spacing and the
    /// PDE's quantity count.
    pub fn new(mesh: StructuredMesh, pde: P, config: EngineConfig) -> Self {
        let mut cfg = StpConfig::new(config.order, pde.num_quantities());
        if let Some(w) = config.width {
            cfg = cfg.with_width(w);
        }
        cfg.rule = config.rule;
        // Plan-time tuning: pick the GEMM backend and block size (unless
        // overridden) per the configured strategy — the plan comes back
        // already built on the chosen backend, and the report is kept
        // for introspection.
        let (plan, tune_report) = tune_plan(
            cfg,
            mesh.cell_size(),
            config.kernel,
            &pde,
            config.tuning,
            config.block_size,
        );
        let cells = mesh.num_cells();
        let state = (0..cells)
            .map(|_| AlignedVec::zeroed(plan.aos.len()))
            .collect();
        let outputs = (0..cells).map(|_| StpOutputs::new(&plan)).collect();
        let block_size = tune_report.block_size;
        assert!(block_size >= 1, "block size must be at least 1");
        Self {
            mesh,
            pde,
            plan,
            config,
            state,
            outputs,
            sources: Vec::new(),
            cell_sources: BTreeMap::new(),
            receivers: Vec::new(),
            block_size,
            tune: tune_report,
            time: 0.0,
            steps: 0,
            lts: OnceLock::new(),
            lts_bufs: None,
            lts_clocks: Vec::new(),
        }
    }

    /// The resolved predictor block size this engine steps with (the
    /// config's override, or the tuner's pick — see
    /// [`Engine::tune_report`]).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The plan-time tuning decision: chosen block size and GEMM backend,
    /// the static-heuristic baseline, and every candidate the tuner
    /// weighed (with predicted costs, and probe timings in `probe` mode).
    pub fn tune_report(&self) -> &TuneReport {
        &self.tune
    }

    /// The shard partition and canonical face index the engine steps
    /// with — always `Some`, the same plan as [`Engine::lts_plan`].
    pub fn shard_plan(&self) -> Option<&ShardPlan> {
        Some(self.lts_plan())
    }

    /// Initializes every node from a closure over physical coordinates.
    /// The closure must fill all `m` stored quantities (including
    /// parameters).
    pub fn set_initial(&mut self, f: impl Fn([f64; 3], &mut [f64]) + Sync) {
        let n = self.plan.n();
        let m = self.plan.m();
        let m_pad = self.plan.aos.m_pad();
        let nodes = self.plan.basis.nodes.clone();
        let mesh = &self.mesh;
        par::for_each_mut(&mut self.state, |c, q| {
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let x = mesh.cell_point(c, [nodes[k1], nodes[k2], nodes[k3]]);
                        let node = (k3 * n + k2) * n + k1;
                        f(x, &mut q[node * m_pad..node * m_pad + m]);
                    }
                }
            }
        });
        // New initial data → new per-cell dt field → new clustering.
        self.invalidate_levels();
        self.lts_clocks.clear();
    }

    /// Registers a point source (projected onto its containing cell).
    ///
    /// # Panics
    /// If another source already lives in the same cell: the predictor
    /// takes one rank-1 `CellSource` per cell, so two co-located sources
    /// cannot be superposed — rejecting loudly beats silently dropping
    /// one of them.
    pub fn add_point_source(&mut self, source: PointSource) {
        let cell = self.mesh.locate(source.position);
        assert!(
            !self.cell_sources.contains_key(&cell),
            "cell {cell} already has a point source; multiple sources per \
             cell are not supported (refine the mesh to separate them)"
        );
        let xi = self.mesh.to_reference(cell, source.position);
        // The spatial projection is time-independent: compute it once here
        // and only refresh the amplitude derivatives per step.
        let projected = CellSource::project(&self.plan, xi, self.mesh.cell_size(), Vec::new());
        self.cell_sources.insert(cell, projected);
        self.sources.push((cell, source));
    }

    /// Refreshes the time-dependent part of every registered source's
    /// projection (`derivs` at `t_n`); the spatial `node_coeffs` were
    /// computed at registration and are never rebuilt.
    fn refresh_source_derivs(&mut self) {
        let n_order = self.plan.n();
        let time = self.time;
        for (cell, src) in &self.sources {
            let cs = self
                .cell_sources
                .get_mut(cell)
                // PANIC-OK: internal invariant — `add_source` inserts
                // the projection when it registers the source.
                .expect("every registered source has a projection");
            cs.derivs = src.amplitude_derivatives(time, n_order);
        }
    }

    /// Adds a receiver probe at a physical position.
    pub fn add_receiver(&mut self, position: [f64; 3]) -> usize {
        let cell = self.mesh.locate(position);
        let xi = self.mesh.to_reference(cell, position);
        let phi = [
            self.plan.basis.basis_at(xi[0]),
            self.plan.basis.basis_at(xi[1]),
            self.plan.basis.basis_at(xi[2]),
        ];
        self.receivers.push(Receiver {
            position,
            cell,
            phi,
            records: Vec::new(),
        });
        self.receivers.len() - 1
    }

    /// One cell's CFL rate `max_nodes Σ_d s_d / Δx_d` — the wave-speed
    /// contributions of the three dimensions add up.
    fn cell_rate(&self, q: &[f64]) -> f64 {
        let n = self.plan.n();
        let m = self.plan.m();
        let m_pad = self.plan.aos.m_pad();
        let dx = self.mesh.cell_size();
        let mut rate: f64 = 0.0;
        for k in 0..n * n * n {
            let mut r = 0.0;
            for d in 0..3 {
                r += self.pde.max_wavespeed(d, &q[k * m_pad..k * m_pad + m]) / dx[d];
            }
            rate = rate.max(r);
        }
        rate
    }

    /// Stable dt for a CFL rate: `cfl / ((2N − 1) · rate)` (infinite for
    /// a quiescent rate — callers surface that as [`DegenerateDt`]).
    fn rate_to_dt(&self, rate: f64) -> f64 {
        if rate == 0.0 {
            f64::INFINITY
        } else {
            self.config.cfl / ((2.0 * self.plan.n() as f64 - 1.0) * rate)
        }
    }

    /// The global CFL-stable dt over all cells.
    fn base_dt(&self) -> f64 {
        self.rate_to_dt(par::map_max(&self.state, 0.0, |q| self.cell_rate(q)))
    }

    /// Maximum stable time step from the multi-dimensional CFL condition
    /// `Δt ≤ cfl / ((2N − 1) · max_cells Σ_d s_d / Δx_d)`.
    ///
    /// Under [`SteppingMode::Lts`] this is the **macro** step
    /// `dt_base · 2^Lmax` (every [`Engine::step`] then runs one whole
    /// macro cycle), so CFL-driven loops like [`Engine::advance_until`]
    /// work unchanged. With a single cluster `Lmax = 0` and the value is
    /// bit-identical to the global-stepping dt.
    pub fn max_dt(&self) -> f64 {
        let meta = self.lts_meta();
        match meta.dt_base {
            Some(dt_base) => dt_base * meta.graph.num_slots() as f64,
            None => self.base_dt(),
        }
    }

    /// The step schedule, built on first use. Under LTS it derives from
    /// the *current* state and is cached until the state is replaced
    /// wholesale ([`Engine::set_initial`], [`Engine::restore_state`],
    /// [`Engine::cell_state_mut`]).
    fn lts_meta(&self) -> &LtsMeta {
        self.lts.get_or_init(|| self.build_lts_meta())
    }

    /// Drops the LTS schedule and its buffers after a wholesale state
    /// change (the per-cell dt field, and with it the clustering, may
    /// have moved). Global stepping keeps both: its single-level
    /// schedule does not depend on the state.
    fn invalidate_levels(&mut self) {
        if self.config.stepping == SteppingMode::Lts {
            self.lts = OnceLock::new();
            self.lts_bufs = None;
        }
    }

    fn build_lts_meta(&self) -> LtsMeta {
        let shard_size = self
            .config
            .shard_size
            .unwrap_or_else(|| auto_shard_size(self.mesh.num_cells(), self.block_size));
        if self.config.stepping == SteppingMode::Global {
            let plan = ShardPlan::new(&self.mesh, shard_size);
            let graph = LtsGraph::build(&plan);
            return LtsMeta {
                plan,
                graph,
                dt_base: None,
            };
        }
        let cell_dt: Vec<f64> = self
            .state
            .iter()
            .map(|q| self.rate_to_dt(self.cell_rate(q)))
            .collect();
        // Bitwise equal to `base_dt`: f64 division by a positive value
        // is monotone, so the min over per-cell dt is the dt of the max
        // per-cell rate.
        let dt_base = cell_dt.iter().copied().fold(f64::INFINITY, f64::min);
        let levels = assign_levels(&self.mesh, &cell_dt, MAX_LTS_LEVEL);
        let plan = ShardPlan::with_levels(&self.mesh, shard_size, &levels);
        let graph = LtsGraph::build(&plan);
        LtsMeta {
            plan,
            graph,
            dt_base: Some(dt_base),
        }
    }

    /// Per-cluster `(time, sub_steps)` clocks of the LTS path, indexed
    /// by cluster level. Empty until the first LTS step (and always
    /// empty under global stepping); serialized through checkpoints so a
    /// resumed run continues them exactly.
    pub fn lts_clocks(&self) -> &[(f64, u64)] {
        &self.lts_clocks
    }

    /// The level-aware shard partition the engine steps with (cluster
    /// levels per shard, per-face cadences; every level is 0 under
    /// global stepping). Under LTS it builds the clustering from the
    /// current state on first use.
    pub fn lts_plan(&self) -> &ShardPlan {
        &self.lts_meta().plan
    }

    /// Advances one time step of length `dt` (one whole macro cycle
    /// under [`SteppingMode::Lts`]) on the shard task graph.
    pub fn step(&mut self, dt: f64) {
        // Source amplitude derivatives are refreshed once per (macro)
        // step at `t_n` — exact with a single cluster; with two or more
        // clusters this is first order in time for time-dependent
        // sources (docs/LTS.md, "Point sources").
        self.refresh_source_derivs();
        self.prepare_lts();
        self.step_lts(dt);
        self.time += dt;
        self.steps += 1;
        self.record_receivers();
    }

    /// Ensures the step schedule, runtime buffers and (under LTS) the
    /// per-cluster clocks exist for the current state.
    fn prepare_lts(&mut self) {
        self.lts_meta();
        // PANIC-OK: internal invariant — just built above.
        let meta = self.lts.get().expect("LTS metadata built");
        let num_levels = meta.plan.num_levels();
        if self.config.stepping == SteppingMode::Lts && self.lts_clocks.len() != num_levels {
            self.lts_clocks = vec![(self.time, 0); num_levels];
        }
        if self.lts_bufs.is_some() {
            return;
        }
        let plan = &self.plan;
        let splan = &meta.plan;
        let ns = splan.num_shards();
        let flux_store = || -> Vec<RwLock<Vec<f64>>> {
            (0..ns)
                .map(|s| RwLock::new(vec![0.0; splan.owned_faces(s).len() * plan.face.len()]))
                .collect()
        };
        // The accumulator and halo buffers only exist when clusters
        // actually differ — a single-level plan allocates nothing beyond
        // the face-flux storage.
        let multi = num_levels > 1;
        self.lts_bufs = Some(LtsBufs {
            f_star: flux_store(),
            f_star_acc: if multi { flux_store() } else { Vec::new() },
            halo: if multi {
                (0..ns)
                    .map(|s| RwLock::new(halo_shard(plan, splan, s)))
                    .collect()
            } else {
                Vec::new()
            },
        });
    }

    /// The step body: one **macro cycle** of `2^Lmax` level-0
    /// sub-windows, scheduled as the sub-window-resolved predict /
    /// flux-sweep / apply task graph ([`LtsGraph`]) on the persistent
    /// pool (one sub-window, the whole step, under global stepping).
    /// `dt` is the macro step; a level-`L` cluster
    /// takes `2^(Lmax−L)` sub-steps of `dt · 2^L / 2^Lmax` each (exact
    /// f64 scalings, so a clipped macro step scales all clusters alike).
    ///
    /// Cadence-mismatched faces (a cadence-`c` face under a level-`c+1`
    /// cell) are re-solved per fine sub-window with the coarse side's
    /// trace composed by [`sub_window_trace`]; the two fine `F*` are
    /// accumulated and applied once by the coarse cell, so the face flux
    /// telescopes exactly and conservation holds to round-off.
    ///
    /// Determinism: every face flux is computed exactly once per due
    /// slot by one task from fixed predictor outputs, and every
    /// application runs in a fixed order — results are bit-identical
    /// across thread counts. With a single level the graph is one
    /// predict/flux/apply triple per shard at the full dt: a shard's
    /// sweep starts as soon as its own and its face-neighbours'
    /// predictors are done, with no global barrier.
    ///
    /// ORDERING: most locks below are uncontended — every pair of
    /// conflicting accesses to `out`, `state` and `halo` is ordered by
    /// the task graph (a shard's tasks form a chain `P(k) → … → A(k) →
    /// P(k+1)`, and every cross-shard read has graph edges placing it
    /// after the writer and before the next one). `f_star` and
    /// `f_star_acc` *are* contended (a sweep may rewrite segments of
    /// faces unrelated to a concurrently-running apply task holding the
    /// same lock — the data stays disjoint, the lock is shared), so all
    /// tasks acquire them along one global hierarchy: `f_star[i]` before
    /// every `f_star_acc[j]`, each tier in ascending shard order. Flux
    /// takes `f_star[s]` then `f_star_acc[s]`; Apply takes all its
    /// `f_star` read guards ascending, then all `f_star_acc` read guards
    /// ascending — strictly increasing ranks, hence no deadlock.
    fn step_lts(&mut self, dt: f64) {
        let plan = &self.plan;
        let pde = &self.pde;
        let kernel = self.config.kernel;
        let bsize = self.block_size;
        let cell_sources = &self.cell_sources;
        // PANIC-OK: internal invariant — `step` runs `prepare_lts`
        // first (×2).
        let meta = self.lts.get().expect("LTS metadata prepared");
        let bufs = self.lts_bufs.as_ref().expect("LTS buffers prepared");
        let splan = &meta.plan;
        let graph = &meta.graph;
        let num_slots = graph.num_slots();
        // Exact: `num_slots` is a power of two.
        let dt_base = dt / num_slots as f64;
        let face_len = plan.face.len();
        let multi = splan.num_levels() > 1;

        let out_shards: Vec<RwLock<&mut [StpOutputs]>> = shard_slices(splan, &mut self.outputs)
            .into_iter()
            .map(RwLock::new)
            .collect();
        let state_shards: Vec<Mutex<&mut [AlignedVec]>> = shard_slices(splan, &mut self.state)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let f_star = &bufs.f_star;
        let f_star_acc = &bufs.f_star_acc;
        let halo_shards = &bufs.halo;

        par::run_graph_init(
            graph.indegree(),
            graph.dependents(),
            || {
                let trace_len = if multi { face_len } else { 0 };
                LtsScratch {
                    stp: kernel.make_block_scratch(plan, bsize),
                    cell: None,
                    block: CellBlock::new(plan, bsize),
                    sources: Vec::with_capacity(bsize),
                    corr: CorrectorScratch::new(plan),
                    boundary: BoundaryScratch::new(plan),
                    qtmp: vec![0.0; trace_len],
                    ftmp: vec![0.0; trace_len],
                }
            },
            |ws, task| match graph.task(task) {
                // Predictor over the shard's cells at the cluster's own
                // sub-step, in predictor blocks, plus half-window runs
                // for halo cells.
                LtsTask::Predict { shard: s, .. } => {
                    let level = splan.shard_level(s);
                    let dt_s = dt_base * (1u64 << level) as f64;
                    let range = splan.shard_range(s);
                    // PANIC-OK: lock poisoning means a sibling task
                    // panicked; cascading into the batch abort is
                    // correct (likewise for every lock below).
                    let state = state_shards[s].lock().unwrap();
                    // PANIC-OK: poisoning cascades (see above).
                    let mut outs = out_shards[s].write().unwrap();
                    for (bi, chunk) in outs.chunks_mut(bsize).enumerate() {
                        let local = bi * bsize;
                        ws.block.clear();
                        for i in 0..chunk.len() {
                            ws.block.push(&state[local + i]);
                        }
                        ws.sources.clear();
                        ws.sources.extend(
                            (0..chunk.len()).map(|i| cell_sources.get(&(range.start + local + i))),
                        );
                        kernel.run_block(
                            plan,
                            pde,
                            ws.stp.as_mut(),
                            &BlockInputs::new(&ws.block, dt_s, &ws.sources),
                            chunk,
                        );
                    }
                    // Single-level plans have no halo.
                    if let Some(halo) = halo_shards.get(s) {
                        // PANIC-OK: poisoning cascades (see above).
                        let mut halo = halo.write().unwrap();
                        let HaloShard { cells, half } = &mut *halo;
                        for (hi, &local) in cells.iter().enumerate() {
                            let scratch = ws.cell.get_or_insert_with(|| kernel.make_scratch(plan));
                            kernel.run(
                                plan,
                                pde,
                                scratch.as_mut(),
                                &StpInputs {
                                    q0: &state[local][..],
                                    dt: 0.5 * dt_s,
                                    source: cell_sources.get(&(range.start + local)),
                                },
                                &mut half[hi],
                            );
                        }
                    }
                }
                // Flux sweep over the shard's owned faces *due at this
                // sweep's slot*, into the shard's dense F* segment (and
                // the coarse-window accumulator for mismatched faces).
                LtsTask::Flux { shard: s, sweep } => {
                    let slot = graph.sweep_slot(s, sweep);
                    // Shards whose predictors feed this sweep's active
                    // faces (the graph listed exactly these).
                    let mut deps: Vec<usize> = Vec::new();
                    let mut any_mismatch = false;
                    for id in splan.owned_faces(s) {
                        let c = splan.face_cadence(id) as usize;
                        if slot & ((1usize << c) - 1) != 0 {
                            continue;
                        }
                        match splan.face(id) {
                            FaceTopo::Interior { lower, upper, .. } => {
                                let (ls, us) = (splan.shard_of(lower), splan.shard_of(upper));
                                deps.push(ls);
                                deps.push(us);
                                any_mismatch |= (splan.shard_level(ls) as usize) > c
                                    || (splan.shard_level(us) as usize) > c;
                            }
                            FaceTopo::Boundary { cell, .. } => deps.push(splan.shard_of(cell)),
                        }
                    }
                    deps.sort_unstable();
                    deps.dedup();
                    let guards: Vec<_> = deps
                        .iter()
                        // PANIC-OK: poisoning cascades (see above).
                        .map(|&t| (t, out_shards[t].read().unwrap()))
                        .collect();
                    let hguards: Vec<_> = if multi {
                        deps.iter()
                            // PANIC-OK: poisoning cascades (see above).
                            .map(|&t| (t, halo_shards[t].read().unwrap()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // Lock hierarchy: own f_star, then own f_star_acc
                    // (see the ORDERING note in the doc comment).
                    // PANIC-OK: poisoning cascades (see above).
                    let mut fs = f_star[s].write().unwrap();
                    let mut acc = if any_mismatch {
                        // PANIC-OK: poisoning cascades (see above).
                        Some(f_star_acc[s].write().unwrap())
                    } else {
                        None
                    };
                    for (i, id) in splan.owned_faces(s).enumerate() {
                        let c = splan.face_cadence(id) as usize;
                        if slot & ((1usize << c) - 1) != 0 {
                            continue;
                        }
                        let sub = (slot >> c) & 1;
                        let dst = &mut fs[i * face_len..(i + 1) * face_len];
                        let mut mismatched = false;
                        match splan.face(id) {
                            FaceTopo::Interior { dim, lower, upper } => {
                                let (ls, us) = (splan.shard_of(lower), splan.shard_of(upper));
                                let lo =
                                    &dep_guard(&guards, ls)[lower - splan.shard_range(ls).start];
                                let up =
                                    &dep_guard(&guards, us)[upper - splan.shard_range(us).start];
                                let lo_mis = (splan.shard_level(ls) as usize) > c;
                                let up_mis = (splan.shard_level(us) as usize) > c;
                                // Lower cell's upper trace is the left
                                // state. The face cadence is the *min*
                                // adjacent level, so at most one side is
                                // coarse.
                                let fl = 2 * dim + 1;
                                let fu = 2 * dim;
                                if lo_mis {
                                    let h = dep_guard(&hguards, ls);
                                    let hi = h
                                        .cells
                                        .binary_search(&(lower - splan.shard_range(ls).start))
                                        // PANIC-OK: internal invariant —
                                        // prepare_lts registered a halo
                                        // slot for every coarse cell
                                        // bordering a finer face.
                                        .expect("halo slot for coarse cell");
                                    sub_window_trace(
                                        &mut ws.qtmp,
                                        &mut ws.ftmp,
                                        lo,
                                        &h.half[hi],
                                        fl,
                                        sub,
                                    );
                                } else if up_mis {
                                    let h = dep_guard(&hguards, us);
                                    let hi = h
                                        .cells
                                        .binary_search(&(upper - splan.shard_range(us).start))
                                        // PANIC-OK: see the halo-slot
                                        // invariant above.
                                        .expect("halo slot for coarse cell");
                                    sub_window_trace(
                                        &mut ws.qtmp,
                                        &mut ws.ftmp,
                                        up,
                                        &h.half[hi],
                                        fu,
                                        sub,
                                    );
                                }
                                let (ql, flx): (&[f64], &[f64]) = if lo_mis {
                                    (&ws.qtmp, &ws.ftmp)
                                } else {
                                    (&lo.qface[fl], &lo.fface[fl])
                                };
                                let (qr, frx): (&[f64], &[f64]) = if up_mis {
                                    (&ws.qtmp, &ws.ftmp)
                                } else {
                                    (&up.qface[fu], &up.fface[fu])
                                };
                                rusanov_face(plan, pde, dim, ql, flx, qr, frx, dst);
                                mismatched = lo_mis || up_mis;
                            }
                            FaceTopo::Boundary {
                                dim,
                                cell,
                                side,
                                kind,
                            } => {
                                let t = splan.shard_of(cell);
                                let out = &dep_guard(&guards, t)[cell - splan.shard_range(t).start];
                                let fi = 2 * dim + side;
                                boundary_face(
                                    plan,
                                    pde,
                                    dim,
                                    side,
                                    kind,
                                    &out.qface[fi],
                                    &out.fface[fi],
                                    &mut ws.boundary,
                                    dst,
                                );
                            }
                        }
                        if mismatched {
                            // PANIC-OK: internal invariant — a
                            // mismatched active face set `any_mismatch`.
                            let acc = acc.as_mut().expect("accumulator acquired");
                            let a = &mut acc[i * face_len..(i + 1) * face_len];
                            if sub == 0 {
                                a.copy_from_slice(dst);
                            } else {
                                for (av, dv) in a.iter_mut().zip(dst.iter()) {
                                    *av += dv;
                                }
                            }
                        }
                    }
                }
                // Volume + six face corrections per cell at the
                // cluster's sub-step, reading F* from the owning shards'
                // segments — the accumulated coarse-window flux for
                // faces finer than this cluster's window.
                LtsTask::Apply { shard: s, .. } => {
                    let level = splan.shard_level(s);
                    let range = splan.shard_range(s);
                    // PANIC-OK: poisoning cascades (see above).
                    let outs = out_shards[s].read().unwrap();
                    // The owners of every face the shard's cells touch.
                    let owners = splan.apply_deps(s);
                    // Lock hierarchy: every f_star guard (ascending),
                    // then every f_star_acc guard (ascending) — see the
                    // ORDERING note in the doc comment.
                    let fguards: Vec<_> = owners
                        .iter()
                        // PANIC-OK: poisoning cascades (see above).
                        .map(|&t| (t, f_star[t].read().unwrap()))
                        .collect();
                    let aguards: Vec<_> = if multi {
                        owners
                            .iter()
                            // PANIC-OK: poisoning cascades (see above).
                            .map(|&t| (t, f_star_acc[t].read().unwrap()))
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // PANIC-OK: poisoning cascades (see above).
                    let mut state = state_shards[s].lock().unwrap();
                    for (i, q) in state.iter_mut().enumerate() {
                        let c = range.start + i;
                        let out = &outs[i];
                        apply_volume(plan, pde, &mut ws.corr, out, q);
                        for face in Face::ALL {
                            let id = splan.cell_faces(c)[face.index()];
                            let owner = splan.face_owner(id);
                            let local = id - splan.owned_faces(owner).start;
                            let seg: &[f64] = if splan.face_cadence(id) < level {
                                &dep_guard(&aguards, owner)[..]
                            } else {
                                &dep_guard(&fguards, owner)[..]
                            };
                            let fstar = &seg[local * face_len..(local + 1) * face_len];
                            apply_face(
                                plan,
                                face.dim,
                                face.side,
                                fstar,
                                &out.fface[face.index()],
                                q,
                            );
                        }
                    }
                }
            },
        );

        // Advance the per-cluster clocks: a level-L cluster took
        // `2^(Lmax−L)` sub-steps and all clusters meet at `t + dt`.
        let t_end = self.time + dt;
        for (level, clock) in self.lts_clocks.iter_mut().enumerate() {
            clock.0 = t_end;
            clock.1 += (num_slots >> level) as u64;
        }
    }

    /// Runs with CFL-limited steps until `t_end` (last step clipped).
    ///
    /// Termination is judged with a tolerance *relative* to `t_end` (one
    /// part in 10¹²): the seed's absolute `t_end - 1e-14` cutoff
    /// underflows for large targets (`1e3 - 1e-14 == 1e3` in f64), which
    /// let the loop chase sub-resolution remainders with degenerate
    /// clipped steps. Once within tolerance the clock snaps to `t_end`;
    /// a clipped step too small to advance `time` at all clamps instead
    /// of asserting.
    pub fn run_until(&mut self, t_end: f64) {
        self.advance_until(t_end, |_| true)
            // PANIC-OK: the unchecked variant's documented contract; the
            // fallible form is `advance_until`.
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Checked [`Engine::run_until`]: advances with CFL-limited steps
    /// toward `t_end`, consulting `keep_going` before every dt
    /// computation.
    ///
    /// Returns `Ok(true)` when the target is reached (or the remaining
    /// gap fell below f64 resolution — same clamp as `run_until`),
    /// `Ok(false)` when `keep_going` stopped the run early (the engine
    /// is left at a step boundary, ready to be checkpointed), and
    /// [`DegenerateDt`] when `max_dt` comes back zero, negative or
    /// non-finite — a long-lived service fails the one job instead of
    /// panicking the process.
    ///
    /// The control check never perturbs the step sequence: `dt` is
    /// always `max_dt().min(t_end - time)` against the *real* target, so
    /// a paused-and-resumed run replays the exact dt sequence of an
    /// uninterrupted one (see `crates/core/tests/checkpoint.rs`).
    pub fn advance_until(
        &mut self,
        t_end: f64,
        mut keep_going: impl FnMut(&Self) -> bool,
    ) -> Result<bool, DegenerateDt> {
        let tol = t_end.abs() * 1e-12;
        while self.time < t_end - tol {
            if !keep_going(self) {
                return Ok(false);
            }
            let dt = self.max_dt().min(t_end - self.time);
            if !(dt.is_finite() && dt > 0.0) {
                return Err(DegenerateDt { dt });
            }
            if self.time + dt == self.time {
                // dt is below f64 resolution at this magnitude; one more
                // step could never advance the clock.
                break;
            }
            self.step(dt);
        }
        if (self.time - t_end).abs() <= tol {
            self.time = t_end;
        }
        Ok(true)
    }

    /// Serializes this engine's full mutable state — DOFs, clock, step
    /// count and receiver records — into a [`crate::checkpoint::EngineState`]
    /// (the configuration travels separately as resolved knobs; see
    /// [`crate::checkpoint`]).
    pub fn save_state(&self) -> crate::checkpoint::EngineState {
        let state_len = self.plan.aos.len();
        let mut state = Vec::with_capacity(self.state.len() * state_len);
        for q in &self.state {
            state.extend_from_slice(q);
        }
        crate::checkpoint::EngineState {
            dims: self.mesh.dims,
            order: self.config.order,
            state_len,
            time: self.time,
            steps: self.steps,
            state,
            receivers: self
                .receivers
                .iter()
                .map(|r| crate::checkpoint::ReceiverState {
                    position: r.position,
                    records: r.records.clone(),
                })
                .collect(),
            lts_clocks: self.lts_clocks.clone(),
        }
    }

    /// Restores a saved [`crate::checkpoint::EngineState`] into this engine,
    /// which must have been built with the same mesh dimensions, order
    /// and padded state layout (resolved-knob replay guarantees that;
    /// see [`crate::checkpoint`]) and have the same receivers
    /// registered. DOFs are copied bit-exactly, padding included, so
    /// subsequent steps are bit-identical to the uninterrupted run.
    pub fn restore_state(
        &mut self,
        s: &crate::checkpoint::EngineState,
    ) -> Result<(), crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        if s.dims != self.mesh.dims {
            return Err(CheckpointError::new(format!(
                "mesh mismatch: checkpoint has {:?} cells, engine has {:?}",
                s.dims, self.mesh.dims
            )));
        }
        if s.order != self.config.order {
            return Err(CheckpointError::new(format!(
                "order mismatch: checkpoint has {}, engine has {}",
                s.order, self.config.order
            )));
        }
        if s.state_len != self.plan.aos.len() {
            return Err(CheckpointError::new(format!(
                "state layout mismatch: checkpoint has {} doubles/cell, engine has {} \
                 (different SIMD padding?)",
                s.state_len,
                self.plan.aos.len()
            )));
        }
        if s.state.len() != self.state.len() * s.state_len {
            return Err(CheckpointError::new(format!(
                "state size mismatch: checkpoint has {} doubles, engine needs {}",
                s.state.len(),
                self.state.len() * s.state_len
            )));
        }
        if s.receivers.len() != self.receivers.len() {
            return Err(CheckpointError::new(format!(
                "receiver count mismatch: checkpoint has {}, engine has {}",
                s.receivers.len(),
                self.receivers.len()
            )));
        }
        for (r, rs) in self.receivers.iter().zip(&s.receivers) {
            if r.position != rs.position {
                return Err(CheckpointError::new(format!(
                    "receiver position mismatch: checkpoint has {:?}, engine has {:?}",
                    rs.position, r.position
                )));
            }
        }
        for (q, chunk) in self.state.iter_mut().zip(s.state.chunks_exact(s.state_len)) {
            q.copy_from_slice(chunk);
        }
        for (r, rs) in self.receivers.iter_mut().zip(&s.receivers) {
            r.records = rs.records.clone();
        }
        self.time = s.time;
        self.steps = s.steps;
        // Rebuild the clustering from the restored state (deterministic,
        // so a resumed LTS run reproduces the saved run's meta exactly);
        // the per-cluster clocks continue from the checkpoint.
        self.invalidate_levels();
        self.lts_clocks = s.lts_clocks.clone();
        Ok(())
    }

    /// Nodal L2 error of the evolved quantities against an exact solution.
    pub fn l2_error(&self, exact: &dyn aderdg_pde::ExactSolution) -> f64 {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let nodes = &self.plan.basis.nodes;
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut err2 = 0.0;
        let mut qe = vec![0.0; vars];
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let x = self.mesh.cell_point(c, [nodes[k1], nodes[k2], nodes[k3]]);
                        exact.evaluate(x, self.time, &mut qe);
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for s in 0..vars {
                            let e = q[node * m_pad + s] - qe[s];
                            err2 += wk * e * e;
                        }
                    }
                }
            }
        }
        err2.sqrt()
    }

    /// Interpolates the evolved quantities at a physical point.
    pub fn sample(&self, x: [f64; 3]) -> Vec<f64> {
        let cell = self.mesh.locate(x);
        let xi = self.mesh.to_reference(cell, x);
        let phi = [
            self.plan.basis.basis_at(xi[0]),
            self.plan.basis.basis_at(xi[1]),
            self.plan.basis.basis_at(xi[2]),
        ];
        self.sample_cell(cell, &phi)
    }

    fn sample_cell(&self, cell: usize, phi: &[Vec<f64>; 3]) -> Vec<f64> {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let q = &self.state[cell];
        let mut out = vec![0.0; vars];
        for k3 in 0..n {
            for k2 in 0..n {
                for k1 in 0..n {
                    let wgt = phi[0][k1] * phi[1][k2] * phi[2][k3];
                    if wgt == 0.0 {
                        continue;
                    }
                    let node = (k3 * n + k2) * n + k1;
                    for s in 0..vars {
                        out[s] += wgt * q[node * m_pad + s];
                    }
                }
            }
        }
        out
    }

    fn record_receivers(&mut self) {
        if self.receivers.is_empty() {
            return;
        }
        let samples: Vec<(usize, Vec<f64>)> = self
            .receivers
            .iter()
            .enumerate()
            .map(|(i, r)| (i, self.sample_cell(r.cell, &r.phi)))
            .collect();
        for (i, v) in samples {
            let t = self.time;
            self.receivers[i].records.push((t, v));
        }
    }

    /// Quadrature-weighted mesh integral of every evolved quantity —
    /// the discrete conserved quantities. With periodic boundaries each
    /// entry is conserved to round-off by the once-per-face flux
    /// telescoping; with walls, exactly the rows whose wall flux vanishes
    /// (e.g. pressure at a rigid acoustic wall) stay constant
    /// (`tests/boundary_matrix.rs`).
    pub fn integrals(&self) -> Vec<f64> {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut acc = vec![0.0; vars];
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for (s, a) in acc.iter_mut().enumerate() {
                            *a += wk * q[node * m_pad + s];
                        }
                    }
                }
            }
        }
        acc
    }

    /// Quadrature-weighted L2 norm of the evolved quantities — a discrete
    /// energy proxy for stability monitoring.
    pub fn l2_norm(&self) -> f64 {
        let n = self.plan.n();
        let m_pad = self.plan.aos.m_pad();
        let vars = self.pde.num_vars();
        let w = &self.plan.basis.weights;
        let dx = self.mesh.cell_size();
        let cell_vol = dx[0] * dx[1] * dx[2];
        let mut acc = 0.0;
        for c in 0..self.mesh.num_cells() {
            let q = &self.state[c];
            for k3 in 0..n {
                for k2 in 0..n {
                    for k1 in 0..n {
                        let node = (k3 * n + k2) * n + k1;
                        let wk = w[k1] * w[k2] * w[k3] * cell_vol;
                        for s in 0..vars {
                            let v = q[node * m_pad + s];
                            acc += wk * v * v;
                        }
                    }
                }
            }
        }
        acc.sqrt()
    }

    /// Writes one receiver's records as CSV (`t, q0, q1, ...`).
    pub fn write_receiver_csv(
        &self,
        receiver: usize,
        out: &mut dyn std::io::Write,
    ) -> std::io::Result<()> {
        let rec = &self.receivers[receiver];
        write!(out, "t")?;
        for s in 0..self.pde.num_vars() {
            write!(out, ",q{s}")?;
        }
        writeln!(out)?;
        for (t, v) in &rec.records {
            write!(out, "{t}")?;
            for x in v {
                write!(out, ",{x}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Direct read access to a cell's padded AoS state.
    pub fn cell_state(&self, cell: usize) -> &[f64] {
        &self.state[cell]
    }

    /// Mutable access to a cell's state (tests, custom initial data).
    /// Invalidates the cached LTS clustering — state pokes can change
    /// the per-cell dt field it was derived from.
    pub fn cell_state_mut(&mut self, cell: usize) -> &mut [f64] {
        self.invalidate_levels();
        &mut self.state[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_block_size_scales_inversely_with_footprint() {
        // Tiny footprint saturates at the cap; huge footprint degrades
        // to the per-cell path; a 64 KiB footprint fits 8 blocks into
        // the 512 KiB budget.
        assert_eq!(auto_block_size(1), 16);
        assert_eq!(auto_block_size(64 * 1024), 8);
        assert_eq!(auto_block_size(10 << 20), 1);
        assert_eq!(auto_block_size(0), 16);
    }

    #[test]
    fn engine_resolves_block_size_from_config_or_tuner() {
        use aderdg_mesh::StructuredMesh;
        use aderdg_pde::Acoustic;
        let cfg = EngineConfig::new(3).with_block_size(5);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        assert_eq!(engine.block_size(), 5);
        assert_eq!(engine.tune_report().block_size, 5);

        // The default kernel (SplitCK) runs the per-cell fallback under
        // the block pipeline, so model tuning keeps the heuristic answer.
        let cfg = EngineConfig::new(3);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        let expected = auto_block_size(cfg.kernel.footprint_bytes(&engine.plan));
        assert_eq!(engine.block_size(), expected);
        assert_eq!(engine.tune_report().mode, TuningMode::Model);

        // A blocked kernel under model tuning picks from the candidate
        // slate, within the cap.
        let cfg = EngineConfig::new(3).with_kernel_name("aosoa_splitck");
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        assert!((1..=BLOCK_SIZE_CAP).contains(&engine.block_size()));
        assert!(!engine.tune_report().block_candidates.is_empty());
    }

    #[test]
    fn static_tuning_preserves_the_heuristic_for_blocked_kernels() {
        use aderdg_mesh::StructuredMesh;
        use aderdg_pde::Acoustic;
        let cfg = EngineConfig::new(3)
            .with_kernel_name("generic")
            .with_tuning(TuningMode::Static);
        let engine = Engine::new(StructuredMesh::unit_cube(2), Acoustic, cfg);
        let expected = auto_block_size(cfg.kernel.footprint_bytes(&engine.plan));
        assert_eq!(engine.block_size(), expected);
        assert!(engine.tune_report().block_candidates.is_empty());
    }
}
