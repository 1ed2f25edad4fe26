//! Every workload at smoke scale, untraced and traced: each prints every
//! metric `BENCHMARK.json` names, with its unit and every end-to-end
//! metric above 0, and passes its checks.

use corun_serve::Json;
use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every entry under `key` (unit empty for workloads).
fn names(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default();
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
    let bench = Json::parse(&bench).expect("BENCHMARK.json parses");
    let workloads = names(&bench, "workloads");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(env!("CARGO_BIN_EXE_corun_bench"))
            .args(["--smoke", "--trace", trace])
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("run corun_bench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "trace {trace} failed:\n{stdout}");
        let last = stdout.lines().last().expect("a result line");
        let result = Json::parse(last).expect("the result line is JSON");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        let metrics = result.get("metrics").expect("metrics");
        for (workload, _) in &workloads {
            for (name, unit) in names(&bench, key) {
                let m = metrics
                    .get(&format!("{workload}.{name}"))
                    .unwrap_or_else(|| panic!("{workload} did not report {name}"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(value.is_some(), "{workload} {name} has no value");
                if key == "end_to_end" {
                    assert!(value > Some(0.0), "{workload} reported {name} = 0");
                }
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
    }
}
