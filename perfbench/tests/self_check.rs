//! The benchmark's own tests: argument parsing, and the toy-size
//! self-check that every workload runs, passes its correctness checks and
//! emits exactly the metrics `BENCHMARK.json` declares.

use aderdg_perfbench::{metric_mismatches, parse_args, repo_root, self_check, Declared};

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

#[test]
fn parses_the_driver_command_line() {
    let a = parse_args(&args("--workload sweep_mix --seed 7 --seconds 3 --trace 1")).unwrap();
    assert_eq!(a.workload, "sweep_mix");
    assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    for bad in [
        "--workload nope",
        "--seed 1",
        "--workload elastic_p5 --trace 2",
        "--workload elastic_p5 --seconds -1",
        "--workload elastic_p5 --bogus 1",
        "--workload elastic_p5 --seed",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted `{bad}`");
    }
}

#[test]
fn mismatches_name_missing_extra_and_unit_errors() {
    let mut m = aderdg_perfbench::report::Metrics::default();
    m.set("a", 1.0, "s");
    m.set("b", 1.0, "ms");
    let declared = [
        Declared {
            name: "a".into(),
            unit: "s".into(),
        },
        Declared {
            name: "b".into(),
            unit: "s".into(),
        },
        Declared {
            name: "c".into(),
            unit: "s".into(),
        },
    ];
    let found = metric_mismatches(&m, &declared);
    assert_eq!(found.len(), 2, "{found:?}");
    m.set("d", 1.0, "s");
    assert_eq!(metric_mismatches(&m, &declared).len(), 3);
}

#[test]
fn self_check_runs_every_workload_and_emits_every_declared_metric() {
    match self_check(&repo_root().join("BENCHMARK.json")) {
        Ok(log) => assert_eq!(log.len(), 6, "{log:?}"),
        Err(e) => panic!("self-check failed:\n{e}"),
    }
}
