//! Smoke test: every workload, untraced and traced, at `--smoke` size in
//! a dev-profile build — a functional check that the binary, the metric
//! tables and `BENCHMARK.json` agree. It measures nothing.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

const BIN: &str = env!("CARGO_BIN_EXE_tchain-perfbench");

/// The `"name": "..."` values of the objects in `BENCHMARK.json`'s array
/// `section`, each with its `"unit"`.
fn declared(benchmark: &str, section: &str) -> Vec<(String, String)> {
    let start = benchmark
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> Option<String> {
        let at = obj.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(obj[at..at + obj[at..].find('"')?].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

/// The `(name, unit)` pairs of a result line's `metrics` object.
fn printed(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("\"}")
        .filter_map(|entry| {
            let name_end = entry.find("\": {\"value\": ")?;
            let name = entry[..name_end].rsplit('"').next()?.to_string();
            let unit = entry[entry.find("\"unit\": \"")? + 9..].to_string();
            Some((name, unit))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root");
    let benchmark = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = declared(&benchmark, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads.len(), 6);
    let clean = |s: &str, extra: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    };

    let start = Instant::now();
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(&[
                "--workload",
                w,
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--smoke",
            ]);
            assert!(ok, "{w} --trace {trace} failed:\n{stdout}");
            let line = stdout.lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {line}"
            );
            assert!(line.contains("\"failed\": 0, "), "{w}: {line}");
            let got = printed(line);
            assert_eq!(got, declared(&benchmark, section), "{w} --trace {trace}");
            for (name, unit) in &got {
                assert!(
                    clean(name, "_.-") && name.len() <= 64,
                    "metric name {name:?}"
                );
                assert!(
                    clean(unit, "_/%.-") && unit.len() <= 16,
                    "unit {unit:?} of {name}"
                );
            }
            if trace == "0" {
                // End-to-end metrics are never zero.
                assert!(!line.contains("\"value\": 0.0,"), "{w}: {line}");
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert!(elapsed < 10.0, "smoke set took {elapsed:.1} s");
}

#[test]
fn a_wrong_fingerprint_expectation_fails_the_run() {
    let (ok, stdout) = run(&[
        "--workload",
        "swarm_ctrl",
        "--seed",
        "7",
        "--seconds",
        "0",
        "--trace",
        "0",
        "--smoke",
        "--expect-fingerprint",
        "0xdeadbeef",
    ]);
    assert!(!ok, "a wrong fingerprint must exit non-zero:\n{stdout}");
    assert!(stdout
        .lines()
        .last()
        .expect("a result line")
        .starts_with("{\"correct\": false"));
}

#[test]
fn a_debug_build_refuses_to_report_without_smoke() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = Command::new(BIN)
        .args([
            "--workload",
            "swarm_ctrl",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
