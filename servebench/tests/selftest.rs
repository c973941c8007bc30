//! Self-test at tiny scale: every workload prints every metric that
//! `BENCHMARK.json` names, with its unit, and the correctness gate
//! rejects a corrupted expected answer.

use std::path::PathBuf;
use std::process::Command;

use serde::Content;

fn data_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let str_of = |c: Option<&Content>| match c {
        Some(Content::Str(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    };
    spec.get(section)
        .and_then(Content::as_seq)
        .expect("metric list")
        .iter()
        .map(|m| (str_of(m.get("name")), str_of(m.get("unit"))))
        .collect()
}

/// Runs one tiny workload and returns its parsed result line.
fn run(workload: &str, trace: bool, dir: &PathBuf, extra: &[&str]) -> Content {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "tiny"])
        .arg("--data-dir")
        .arg(dir)
        .args(extra)
        .output()
        .expect("servebench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line parses ({e}): {last}"))
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let dir = data_dir("selftest-metrics");
    for workload in ["read-mix", "read-light", "write-mix"] {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run(workload, trace, &dir, &[]);
            assert!(
                matches!(result.get("correct"), Some(Content::Bool(true))),
                "{workload} trace={trace}: {result:?}"
            );
            let Some(Content::Map(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let want = declared(section);
            for (name, unit) in &want {
                let m = metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, m)| m)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert!(
                    matches!(m.get("unit"), Some(Content::Str(u)) if u == unit),
                    "{workload}: {name} has unit {:?}, want {unit}",
                    m.get("unit")
                );
                assert!(
                    matches!(
                        m.get("value"),
                        Some(Content::F64(_) | Content::I64(_) | Content::U64(_))
                    ),
                    "{workload}: {name} has no numeric value: {m:?}"
                );
            }
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload}: extra metrics printed"
            );
        }
    }
}

#[test]
fn the_gate_rejects_a_corrupted_expected_answer() {
    let dir = data_dir("selftest-gate");
    for workload in ["read-mix", "write-mix"] {
        let result = run(workload, false, &dir, &["--corrupt-expected"]);
        assert!(
            matches!(result.get("correct"), Some(Content::Bool(false))),
            "{workload}: a corrupted expectation must fail the run: {result:?}"
        );
        let failed = match result.get("failed") {
            Some(Content::I64(n)) => *n,
            other => panic!("failed count: {other:?}"),
        };
        assert!(failed > 0, "{workload}: no failure counted");
    }
}
