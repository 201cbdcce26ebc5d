//! Smoke-sized runs of every workload, untraced and traced: each must
//! pass its correctness gate and report every metric `BENCHMARK.json`
//! names, with that metric's unit.

use dynaquar_core::spec::{parse_json, Value};
use std::path::Path;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("`{key}` is not a list: {other:?}"),
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {v:?}"))
}

/// Runs every workload once with `--trace trace` and checks the merged
/// final line against the metrics of `section`.
fn smoke(trace: u8, section: &str) {
    let bench = benchmark_json();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-trace{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_dynaquar-perfbench"))
        .args([
            "--workload",
            "all",
            "--seconds",
            "1",
            "--trace",
            &trace.to_string(),
        ])
        .arg("--out")
        .arg(&out)
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last =
        parse_json(stdout.lines().last().expect("a result line")).expect("the result line parses");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(last.get("failed"), Some(&Value::Int(0)), "{stdout}");
    let metrics = last.get("metrics").expect("metrics");

    let workloads = list(&bench, "workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let workload = str_of(w, "name");
        for m in list(&bench, section) {
            let name = str_of(m, "name");
            let got = metrics
                .get(&format!("{workload}/{name}"))
                .unwrap_or_else(|| panic!("{workload} did not report {name}"));
            assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{workload}/{name}");
            assert!(
                matches!(got.get("value"), Some(Value::Float(_) | Value::Int(_))),
                "{workload}/{name} has no numeric value"
            );
        }
    }
}

#[test]
fn every_workload_is_correct_and_reports_every_metric() {
    smoke(0, "end_to_end");
    smoke(1, "per_layer");
}
