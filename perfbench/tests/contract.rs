//! The benchmark's own contract, at a tiny size: every metric named in
//! `BENCHMARK.json` is catalogued with the same unit and direction and
//! is emitted by every workload, and a bad output is counted as a
//! failure rather than passed.

use std::process::Command;

use forumcast_data::{ReplayReport, UserId};
use forumcast_perfbench::checks;
use forumcast_perfbench::metrics::{Report, GATED, LAYERS};
use forumcast_perfbench::workloads::{self, Round};
use forumcast_recsys::Candidate;
use serde::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key `{key}`")),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::I64(i) => *i as f64,
        Value::U64(u) => *u as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&json).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let bench = benchmark_json();
    for (section, catalogue) in [("end_to_end", GATED), ("per_layer", LAYERS)] {
        let listed = items(field(&bench, section));
        assert_eq!(listed.len(), catalogue.len(), "{section} count");
        for (entry, def) in listed.iter().zip(catalogue) {
            assert_eq!(text(field(entry, "name")), def.name, "{section} order");
            assert_eq!(text(field(entry, "unit")), def.unit, "{} unit", def.name);
            assert_eq!(
                text(field(entry, "better")),
                def.better.word(),
                "{} direction",
                def.name
            );
        }
    }
    let names: Vec<&str> = items(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(names, workloads::NAMES);
}

/// Runs one workload at the tiny size and returns its exit code,
/// standard output and parsed result line.
fn run_tiny(workload: &str, trace: bool) -> (i32, String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = serde_json::from_str(&last).expect("the last line is JSON");
    (out.status.code().unwrap_or(-1), stdout, result)
}

#[test]
fn every_workload_emits_every_metric_with_unit_and_direction() {
    for workload in workloads::NAMES {
        for trace in [false, true] {
            let (code, stdout, result) = run_tiny(workload, trace);
            assert_eq!(code, 0, "{workload} trace={trace}:\n{stdout}");
            assert!(matches!(field(&result, "correct"), Value::Bool(true)));
            assert!(number(field(&result, "attempted")) >= 1.0);
            assert_eq!(number(field(&result, "failed")), 0.0);
            let catalogue = if trace { LAYERS } else { GATED };
            let Value::Object(emitted) = field(&result, "metrics") else {
                panic!("metrics is an object");
            };
            let names: Vec<&str> = emitted.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{workload} trace={trace}");
            for def in catalogue {
                let m = field(field(&result, "metrics"), def.name);
                assert_eq!(text(field(m, "unit")), def.unit);
                assert!(number(field(m, "value")).is_finite(), "{}", def.name);
                // The human-readable line names unit and direction.
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().nth(1) == Some(def.name));
                if let Some(line) = line {
                    assert!(line.contains(&format!("({} is better)", def.better.word())));
                } else {
                    assert_eq!(
                        number(field(m, "value")),
                        0.0,
                        "{} emitted but not described",
                        def.name
                    );
                }
            }
            if !trace {
                for def in GATED {
                    assert!(
                        number(field(field(field(&result, "metrics"), def.name), "value")) > 0.0
                    );
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
}

#[test]
fn every_run_flag_is_required_and_size_takes_only_tiny() {
    let full = [
        "--workload",
        "cv_medium",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ];
    for skip in (0..full.len()).step_by(2) {
        let mut args = full.to_vec();
        args.drain(skip..skip + 2);
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "without {}", full[skip]);
        assert!(
            out.stdout.is_empty(),
            "no result line without {}",
            full[skip]
        );
    }
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(full)
        .args(["--size", "full"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// A check result counted into a report the way the workloads do.
fn counted(check: Result<(), String>) -> Report {
    let mut round: Round<()> = Round::default();
    round.check(1, check);
    let mut report = Report::default();
    report.tally(round.ops, round.failed, round.problem);
    report
}

#[test]
fn injected_bad_outputs_are_counted_as_failures() {
    // A flipped replay hash.
    let flipped = counted(checks::replay(
        "replay",
        0xABCD ^ 1,
        0xABCD,
        &ReplayReport::default(),
    ));
    // A non-finite prediction.
    let nan = counted(checks::predictions(&[Candidate {
        user: UserId(4),
        answer_prob: 0.7,
        votes: f64::NAN,
        response_time: 3.0,
    }]));
    // An infeasible distribution: sums to 1 but exceeds a capacity.
    let infeasible = counted(checks::distribution(&[0.8, 0.2], &[0.5, 1.0]));
    for (what, report) in [("hash", flipped), ("nan", nan), ("lp", infeasible)] {
        assert_eq!((report.attempted, report.failed), (1, 1), "{what}");
        assert!(!report.correct(), "{what}");
        assert!(
            report.json_line(false).starts_with("{\"correct\": false"),
            "{what}"
        );
        assert_eq!(report.problems.len(), 1, "{what}");
    }
    // And the same outputs, unflipped, pass.
    let ok = counted(checks::replay(
        "replay",
        0xABCD,
        0xABCD,
        &ReplayReport::default(),
    ));
    assert!(ok.correct());
}
