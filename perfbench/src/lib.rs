//! The aderdg benchmark: three workloads measured end to end from
//! outside the library, plus a traced run that breaks each workload into
//! per-layer numbers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload elastic_p5 --seed 1 --seconds 45 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics, each with its unit. See
//! `perfbench/README.md` for the workloads, the metrics and how to read
//! them.

#![warn(missing_docs)]

pub mod host;
pub mod json;
pub mod layers;
pub mod problem;
pub mod report;
pub mod stats;
pub mod stepping;
pub mod sweep;
pub mod trace;

use crate::host::Provenance;
use crate::layers::ProbeSizes;
use crate::problem::{check_matches_scenario, Problem};
use crate::report::{result_line, Metrics, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use aderdg_core::scenario::RunRequest;
use aderdg_core::{par, SteppingMode};
use aderdg_pde::LinearPde;
use aderdg_tensor::Lcg;
use std::path::{Path, PathBuf};

/// Every workload the benchmark runs. `BENCHMARK.json` declares all but
/// `acoustic_lts`: on the reference host its run-to-run spread exceeded
/// the largest bound a declared metric may have (see the README), so it
/// is run by hand and its layers are probed by `sweep_mix`'s traced run.
pub const WORKLOADS: [&str; 3] = ["elastic_p5", "acoustic_lts", "sweep_mix"];

/// The repository root (the benchmark's package sits one level below).
pub fn repo_root() -> PathBuf {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.parent().unwrap_or(here).to_path_buf()
}

/// Where the traced run writes its spans.
pub fn trace_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Problem and repetition sizes: the full benchmark, or toy sizes for the
/// self-check.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Toy sizes (self-check).
    pub toy: bool,
    /// Minimum solves of a stepping workload.
    pub min_solves: usize,
    /// Minimum timed rounds of the sweep.
    pub min_rounds: usize,
    /// Probe repetitions of the traced run.
    pub probe: ProbeSizes,
}

impl Sizes {
    /// Sizes for the full benchmark (`toy = false`) or the self-check.
    pub fn new(toy: bool) -> Self {
        if toy {
            Self {
                toy,
                min_solves: 2,
                min_rounds: 1,
                probe: ProbeSizes {
                    reps: 1,
                    peak_ms: 10,
                    gemm_s: 0.001,
                },
            }
        } else {
            Self {
                toy,
                min_solves: 5,
                min_rounds: 5,
                probe: ProbeSizes {
                    reps: 5,
                    peak_ms: 200,
                    gemm_s: 0.05,
                },
            }
        }
    }
}

/// Final L2 error over amplitude `elastic_p5` must stay under, recorded
/// from the first runs at 2× the measured value (1.76e-4 at the full
/// size, 0.28 on the coarse toy mesh).
fn elastic_rel_l2_bound(toy: bool) -> f64 {
    if toy {
        0.6
    } else {
        3.5e-4
    }
}

/// One workload run's output.
#[derive(Debug)]
pub struct RunOutput {
    /// The metrics of the run (end-to-end or per-layer).
    pub metrics: Metrics,
    /// The correctness tally.
    pub outcome: Outcome,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

/// The request of a workload's problem at full or toy size.
fn stepping_request(workload: &str, toy: bool) -> RunRequest {
    let mut req = RunRequest::new();
    match (workload, toy) {
        ("elastic_p5", false) => req.t_end = Some(0.02),
        ("elastic_p5", true) => {
            req.order = Some(3);
            req.cells = Some(2);
            req.t_end = Some(0.005);
        }
        ("acoustic_lts", false) => {
            req.cells = Some(8);
            req.t_end = Some(0.06);
        }
        ("acoustic_lts", true) => {
            req.order = Some(3);
            req.cells = Some(4);
            req.t_end = Some(0.02);
        }
        _ => {}
    }
    req.stepping = Some(if workload == "acoustic_lts" {
        SteppingMode::Lts
    } else {
        SteppingMode::Global
    });
    req
}

/// The smoke request the harness-vs-`Scenario::run` check uses.
fn smoke_request(stepping: SteppingMode) -> RunRequest {
    RunRequest {
        stepping: Some(stepping),
        ..RunRequest::smoke()
    }
}

/// Runs one workload: the end-to-end metrics (`trace = false`) or the
/// traced per-layer run (`trace = true`).
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
) -> Result<RunOutput, String> {
    par::set_num_threads(host::cores());
    let mut rng = Lcg::new(seed);
    match workload {
        "elastic_p5" => {
            let amplitude = 0.1 * rng.f64(0.5, 1.5);
            let problem =
                problem::elastic_stress(&stepping_request(workload, sizes.toy), amplitude)?;
            let smoke = smoke_request(SteppingMode::Global);
            let reference = problem::elastic_stress(&smoke, 0.1)?;
            let out = stepping_workload(
                workload,
                &problem,
                check_matches_scenario(&reference, &smoke),
                seed,
                seconds,
                trace,
                sizes,
            );
            Ok(out)
        }
        "acoustic_lts" => {
            let center = [
                0.6 + rng.f64(-0.05, 0.05),
                0.6 + rng.f64(-0.05, 0.05),
                0.6 + rng.f64(-0.05, 0.05),
            ];
            let problem =
                problem::acoustic_layered(&stepping_request(workload, sizes.toy), center)?;
            let smoke = smoke_request(SteppingMode::Lts);
            let reference = problem::acoustic_layered(&smoke, [0.6; 3])?;
            Ok(stepping_workload(
                workload,
                &problem,
                check_matches_scenario(&reference, &smoke),
                seed,
                seconds,
                trace,
                sizes,
            ))
        }
        "sweep_mix" => sweep_workload(seed, seconds, trace, sizes),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Provenance and the tuner's decision, as one JSON object.
fn provenance_json<P: LinearPde + Clone>(
    workload: &str,
    seed: u64,
    repeats: usize,
    problem: &Problem<P>,
) -> String {
    let p = Provenance::detect(&repo_root());
    let engine = problem.setup(&Tracer::new(false), None);
    let tune = engine.tune_report();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"repeats\": {repeats}, \"threads\": {}, \
         \"cores\": {}, \"isa\": {}, \"cpu_model\": {}, \"l2_kib\": {}, \"l3_kib\": {}, \
         \"commit\": {}, \"probe_scenario\": {}, \"kernel\": {}, \"gemm_backend\": {}, \
         \"block_size\": {}}}",
        json::quote(workload),
        par::num_threads(),
        p.cores,
        json::quote(&p.isa),
        json::quote(&p.cpu_model),
        p.l2_kib,
        p.l3_kib,
        json::quote(&p.commit),
        json::quote(problem.scenario),
        json::quote(tune.kernel),
        json::quote(tune.backend),
        tune.block_size,
    )
}

/// Writes the traced run's spans next to the benchmark (best effort: a
/// read-only checkout still gets its metrics).
fn write_spans(tr: &Tracer, workload: &str, seed: u64, header: &str, notes: &mut Vec<String>) {
    let path = trace_dir().join(format!("{workload}-seed{seed}.spans.jsonl"));
    match tr.write_jsonl(&path, header) {
        Ok(()) => notes.push(format!("spans: {}", path.display())),
        Err(e) => notes.push(format!("spans not written ({}): {e}", path.display())),
    }
}

fn stepping_workload<P: LinearPde + Clone>(
    workload: &str,
    problem: &Problem<P>,
    matches_scenario: Result<(), String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
) -> RunOutput {
    let mut outcome = Outcome::default();
    outcome.check_result(matches_scenario);
    let rel_bound = elastic_rel_l2_bound(sizes.toy);
    let mut notes = Vec::new();
    let off = Tracer::new(false);
    let (metrics, solves) = if trace {
        let untraced = stepping::run_solves(
            problem,
            &off,
            seconds / 2.0,
            sizes.min_solves,
            rel_bound,
            &mut outcome,
        );
        let tr = Tracer::new(true);
        let traced = stepping::run_solves(
            problem,
            &tr,
            seconds / 2.0,
            sizes.min_solves,
            rel_bound,
            &mut outcome,
        );
        let mut m = Metrics::default();
        layers::probe(problem, sizes.probe, &tr, &mut outcome, &mut m);
        let solve =
            |ss: &[stepping::Solve]| median(&ss.iter().map(|s| s.solve_s).collect::<Vec<_>>());
        m.set(
            "trace.overhead_share",
            solve(&traced) / solve(&untraced) - 1.0,
            "1",
        );
        let shares: Vec<f64> = untraced
            .iter()
            .map(|s| s.setup_s / (s.setup_s + s.solve_s))
            .collect();
        m.set("jobs.setup_share", median(&shares), "1");
        let header = provenance_json(workload, seed, untraced.len() + traced.len(), problem);
        write_spans(&tr, workload, seed, &header, &mut notes);
        notes.insert(0, format!("provenance: {header}"));
        (m, untraced)
    } else {
        layers::replay_check(problem, 0, &off, &mut outcome);
        let solves = stepping::run_solves(
            problem,
            &off,
            seconds,
            sizes.min_solves,
            rel_bound,
            &mut outcome,
        );
        let header = provenance_json(workload, seed, solves.len(), problem);
        notes.push(format!("provenance: {header}"));
        (stepping::metrics(&solves), solves)
    };
    let errors: Vec<f64> = solves.iter().filter_map(|s| s.rel_l2_error).collect();
    if !errors.is_empty() {
        notes.push(format!(
            "l2_error = {:e} (over the wave amplitude; bound {rel_bound:e}, {} solves)",
            median(&errors),
            errors.len()
        ));
    }
    let steps: usize = solves.iter().map(|s| s.step_s.len()).sum();
    let solve_s: Vec<String> = solves.iter().map(|s| format!("{:.4}", s.solve_s)).collect();
    notes.push(format!(
        "samples: {} solves, {steps} steps; solve_s of each solve: {}",
        solves.len(),
        solve_s.join(" ")
    ));
    RunOutput {
        metrics,
        outcome,
        notes,
    }
}

fn sweep_workload(seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Result<RunOutput, String> {
    let specs = sweep::job_specs(sizes.toy);
    let mut outcome = Outcome::default();
    let mut notes = Vec::new();
    let off = Tracer::new(false);
    // The layer probes run on the `acoustic_lts` problem (a member of the
    // mix, refined and locally time-stepped), so the LTS census, the LTS
    // task graph and the m = 6 kernel layers are measured by a declared
    // workload.
    let probe_problem =
        problem::acoustic_layered(&stepping_request("acoustic_lts", sizes.toy), [0.6; 3])?;
    let (metrics, run) = if trace {
        let untraced = sweep::run(
            &specs,
            seed,
            seconds / 2.0,
            sizes.min_rounds,
            &off,
            &mut outcome,
        );
        let tr = Tracer::new(true);
        let traced = sweep::run(
            &specs,
            seed,
            seconds / 2.0,
            sizes.min_rounds,
            &tr,
            &mut outcome,
        );
        let mut m = Metrics::default();
        let smoke = smoke_request(SteppingMode::Lts);
        outcome.check_result(check_matches_scenario(
            &problem::acoustic_layered(&smoke, [0.6; 3])?,
            &smoke,
        ));
        layers::probe(&probe_problem, sizes.probe, &tr, &mut outcome, &mut m);
        m.set(
            "trace.overhead_share",
            median(&traced.rounds_s) / median(&untraced.rounds_s) - 1.0,
            "1",
        );
        m.set("jobs.setup_share", sweep::setup_share(&untraced), "1");
        let header = provenance_json(
            "sweep_mix",
            seed,
            untraced.rounds_s.len() + traced.rounds_s.len(),
            &probe_problem,
        );
        write_spans(&tr, "sweep_mix", seed, &header, &mut notes);
        notes.insert(0, format!("provenance: {header}"));
        (m, untraced)
    } else {
        let run = sweep::run(&specs, seed, seconds, sizes.min_rounds, &off, &mut outcome);
        let header = provenance_json("sweep_mix", seed, run.rounds_s.len(), &probe_problem);
        notes.push(format!("provenance: {header}"));
        (sweep::metrics(&run), run)
    };
    let lat: Vec<f64> = run.jobs.iter().map(|j| j.latency_s).collect();
    notes.push(format!(
        "samples: {} rounds, {} jobs ({} beyond p90), {} set-up-only jobs",
        run.rounds_s.len(),
        lat.len(),
        stats::beyond(&lat, 90.0),
        run.setup.len()
    ));
    Ok(RunOutput {
        metrics,
        outcome,
        notes,
    })
}

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced per-layer run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Declared unit.
    pub unit: String,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarations {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// Reads the workloads and the end-to-end and per-layer metrics declared
/// in `BENCHMARK.json`.
pub fn declared_metrics(path: &Path) -> Result<Declarations, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[json::Json], String> {
        doc.get(key)
            .and_then(json::Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))
    };
    let names = |key: &str| -> Result<Vec<Declared>, String> {
        list(key)?
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.get(f)
                        .and_then(json::Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` entry without `{f}`"))
                };
                Ok(Declared {
                    name: field("name")?,
                    unit: field("unit")?,
                })
            })
            .collect()
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "workload without `name`".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Declarations {
        workloads,
        end_to_end: names("end_to_end")?,
        per_layer: names("per_layer")?,
    })
}

/// Differences between what a run emitted and what `BENCHMARK.json`
/// declares: missing or extra names, and unit mismatches.
pub fn metric_mismatches(emitted: &Metrics, declared: &[Declared]) -> Vec<String> {
    let mut out = Vec::new();
    for d in declared {
        match emitted.0.get(&d.name) {
            None => out.push(format!("`{}` not emitted", d.name)),
            Some(&(_, unit)) if unit != d.unit => out.push(format!(
                "`{}` emitted in `{unit}`, declared in `{}`",
                d.name, d.unit
            )),
            Some(_) => {}
        }
    }
    for name in emitted.0.keys() {
        if !declared.iter().any(|d| &d.name == name) {
            out.push(format!("`{name}` emitted but not declared"));
        }
    }
    out
}

/// The fast self-check: every workload, untraced and traced, at toy
/// sizes; every run must pass its correctness checks and emit exactly
/// the metrics `BENCHMARK.json` declares, with their units.
pub fn self_check(benchmark_json: &Path) -> Result<Vec<String>, String> {
    let declared = declared_metrics(benchmark_json)?;
    if let Some(w) = declared
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!(
            "BENCHMARK.json declares workload `{w}`, the benchmark runs {WORKLOADS:?}"
        ));
    }
    let mut problems = Vec::new();
    let mut log = Vec::new();
    for workload in WORKLOADS {
        for (trace, metrics) in [(false, &declared.end_to_end), (true, &declared.per_layer)] {
            let out = run_workload(workload, 1, 0.0, trace, Sizes::new(true))?;
            let label = format!("{workload} --trace {}", u8::from(trace));
            for problem in metric_mismatches(&out.metrics, metrics) {
                problems.push(format!("{label}: {problem}"));
            }
            for failure in &out.outcome.failures {
                problems.push(format!("{label}: {failure}"));
            }
            log.push(format!(
                "{label}: {} metrics, {} checks passed",
                out.metrics.0.len(),
                out.outcome.attempted - out.outcome.failed
            ));
        }
    }
    if problems.is_empty() {
        Ok(log)
    } else {
        Err(problems.join("\n"))
    }
}

/// The command-line entry point; returns the process exit code.
pub fn cli_main(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--self-check") {
        return match self_check(&repo_root().join("BENCHMARK.json")) {
            Ok(log) => {
                for line in log {
                    println!("{line}");
                }
                println!("self-check passed");
                0
            }
            Err(e) => {
                eprintln!("self-check failed:\n{e}");
                1
            }
        };
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 | --self-check",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    match run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Sizes::new(false),
    ) {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            for (name, (value, unit)) in &out.metrics.0 {
                println!("metric {name} = {value} {unit}");
            }
            for failure in &out.outcome.failures {
                println!("FAILED: {failure}");
            }
            println!("{}", result_line(&out.metrics, &out.outcome));
            if out.outcome.failed == 0 && out.metrics.0.values().all(|(v, _)| v.is_finite()) {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}
