//! Self-test of the benchmark itself, at `--scale 0.02` in a temporary
//! directory: every workload runs in both modes, prints exactly the
//! metrics `BENCHMARK.json` registers, fails nothing, and repeats its
//! counts for one seed.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The `"name": "<x>"` values inside the array called `section`.
fn registered(benchmark: &str, section: &str) -> Vec<String> {
    let start = benchmark
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &benchmark[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
        .collect()
}

struct Run {
    correct: bool,
    failed: u64,
    /// Metric name → (value, times printed).
    metrics: BTreeMap<String, (f64, usize)>,
}

/// Runs the benchmark binary and parses the last line of its output.
fn run(workload: &str, trace: u8, seed: u64) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_spine"))
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args([
            "--workload",
            workload,
            "--scale",
            "0.02",
            "--seconds",
            "0.3",
        ])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("spine runs");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    let field = |key: &str| {
        let rest = &line[line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
            + key.len()..];
        rest[..rest.find([',', '}']).expect("field ends")]
            .trim()
            .to_string()
    };
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    for part in body
        .split("\"unit\": ")
        .filter(|p| p.contains("{\"value\": "))
    {
        let (name, value) = part.split_once("\": {\"value\": ").expect("name and value");
        let name = &name[name.rfind('"').expect("name opens") + 1..];
        let value: f64 = value
            .trim_end_matches([',', ' '])
            .parse()
            .expect("a number");
        metrics.entry(name.to_string()).or_insert((value, 0)).1 += 1;
    }
    Run {
        correct: field("\"correct\": ") == "true",
        failed: field("\"failed\": ").parse().expect("failed count"),
        metrics,
    }
}

const WORKLOADS: [&str; 4] = ["probe_wire", "scan_warm", "scan_cold", "dml_durable"];

#[test]
fn prints_the_registered_metrics_and_fails_nothing() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(registered(&benchmark, "workloads"), WORKLOADS);
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut want = registered(&benchmark, section);
        want.sort();
        for name in &want {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
        }
        for workload in WORKLOADS {
            let run = run(workload, trace, 5);
            let got: Vec<&String> = run.metrics.keys().collect();
            assert_eq!(
                got,
                want.iter().collect::<Vec<_>>(),
                "{workload} trace={trace}"
            );
            for (name, (_, times)) in &run.metrics {
                assert_eq!(*times, 1, "{workload}: {name} printed {times} times");
            }
            assert!(run.correct, "{workload} trace={trace} reported incorrect");
            assert_eq!(run.failed, 0, "{workload} trace={trace}");
            if trace == 0 {
                assert_eq!(run.metrics["ok_ratio"].0, 1.0, "{workload}");
            }
        }
    }
}

#[test]
fn counts_repeat_for_one_seed() {
    let counts = [
        "grtree.nodes_per_search",
        "rstar.nodes_per_search",
        "sbspace.logical_reads_per_stmt",
        "sbspace.physical_reads_per_stmt",
        "ids.rows_per_stmt",
    ];
    let (a, b) = (run("scan_cold", 1, 9), run("scan_cold", 1, 9));
    for name in counts {
        assert_eq!(
            a.metrics[name].0, b.metrics[name].0,
            "{name} differs between runs"
        );
    }
}
