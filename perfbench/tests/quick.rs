//! Quick mode: a one-second run of each workload, through the
//! benchmark's own command, prints exactly the metric names
//! `BENCHMARK.json` lists — the end-to-end ones untraced, the per-layer
//! ones traced — with every check passing. And the command refuses to
//! run where the program's sources are missing.

use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn benchmark() -> serde_json::Value {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(list: &serde_json::Value) -> Vec<String> {
    let mut names: Vec<String> = list
        .as_seq()
        .expect("a metric list")
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
        .collect();
    names.sort();
    names
}

fn run(dir: &Path, workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new("bash")
        .arg("perfbench/run.sh")
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .current_dir(dir)
        .output()
        .expect("bash runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn quick_runs_print_exactly_the_listed_metrics() {
    let bench = benchmark();
    // serve-mix runs like the others but is not in BENCHMARK.json's gated
    // set (see README.md, "Steadiness")
    let workloads = ["paper-k32", "rmat-k8", "serve-mix"];
    for gated in names(bench.get("workloads").unwrap()) {
        assert!(
            workloads.contains(&gated.as_str()),
            "unknown workload {gated}"
        );
    }
    for workload in workloads {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let (ok, stdout) = run(&root(), workload, trace);
            assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
            let last = stdout.lines().last().expect("a result line");
            let result: serde_json::Value = serde_json::from_str(last).expect("JSON result");
            assert_eq!(
                result.get("correct"),
                Some(&serde_json::Value::Bool(true)),
                "{last}"
            );
            assert_eq!(result.get("failed").and_then(|f| f.as_u64()), Some(0));
            assert!(result.get("attempted").and_then(|a| a.as_u64()).unwrap() >= 1);
            let serde_json::Value::Map(metrics) = result.get("metrics").unwrap() else {
                panic!("metrics is an object: {last}")
            };
            let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            got.sort();
            assert_eq!(
                got,
                names(bench.get(list).unwrap()),
                "{workload} --trace {trace}"
            );
            if trace == 0 {
                for (name, m) in metrics {
                    let v = m.get("value").and_then(|v| v.as_f64()).unwrap();
                    assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
                }
            }
        }
    }
}

#[test]
fn refuses_to_run_without_the_program_sources() {
    fn copy_tree(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name();
            if entry.file_type().unwrap().is_dir() {
                if name != "target" {
                    copy_tree(&entry.path(), &to.join(&name));
                }
            } else {
                std::fs::copy(entry.path(), to.join(&name)).unwrap();
            }
        }
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench-only");
    let _ = std::fs::remove_dir_all(&dir);
    copy_tree(&root().join("perfbench"), &dir.join("perfbench"));
    std::fs::copy(root().join("BENCHMARK.json"), dir.join("BENCHMARK.json")).unwrap();
    let (ok, stdout) = run(&dir, "rmat-k8", 0);
    assert!(!ok && stdout.is_empty(), "ran without sources: {stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}
