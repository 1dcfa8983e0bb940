//! Runs the built `bench_train` the way a driver does, on `tiny_test()`
//! shapes: all four workloads, tracing off and on, then `--compare` on the
//! two result files it wrote. Checks the output contract against
//! `BENCHMARK.json`: no metric printed that is not declared, none declared
//! that is not printed.

use serde::{Content, Deserialize};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

struct Json(Content);

impl Deserialize for Json {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        Ok(Json(c.clone()))
    }
}

fn parse(text: &str) -> Content {
    serde_json::from_str::<Json>(text).expect("valid JSON").0
}

fn names(c: &Content, key: &str) -> Vec<String> {
    let Some(Content::Seq(rows)) = c.get(key) else {
        panic!("BENCHMARK.json: no {key} array");
    };
    rows.iter()
        .map(|r| match r.get("name") {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key}: bad name {other:?}"),
        })
        .collect()
}

fn keys(c: &Content) -> Vec<String> {
    match c {
        Content::Map(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root")
        .to_path_buf()
}

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_train"))
        .args(args)
        // Trace files and the socket scratch directory are relative to the
        // checkout root, where a driver runs the command.
        .current_dir(repo_root())
        .output()
        .expect("bench_train runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

#[test]
fn smoke_pass_of_all_workloads_meets_the_output_contract() {
    let contract = parse(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"),
    );
    let workloads = names(&contract, "workloads");
    assert_eq!(workloads.len(), 4);
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let results: Vec<PathBuf> = ["a", "b"]
        .iter()
        .map(|l| tmp.join(format!("smoke-{l}.json")))
        .collect();
    for r in &results {
        let _ = std::fs::remove_file(r);
    }

    for (label, result) in ["a", "b"].iter().zip(&results) {
        let started = Instant::now();
        for workload in &workloads {
            for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
                let (ok, stdout) = bench(&[
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "25",
                    "--trace",
                    trace,
                    "--smoke",
                    "--out",
                    result.to_str().unwrap(),
                    "--label",
                    label,
                ]);
                assert!(ok, "{workload} --trace {trace} exited non-zero");
                let last = stdout.lines().last().expect("a result line");
                let line = parse(last);
                assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Content::Bool(true)), "{last}");
                assert_eq!(line.get("failed"), Some(&Content::U64(0)));
                assert!(matches!(line.get("attempted"), Some(Content::U64(n)) if *n >= 1));
                let metrics = line.get("metrics").unwrap();
                assert_eq!(
                    keys(metrics),
                    names(&contract, section),
                    "{workload} --trace {trace}: printed metrics differ from BENCHMARK.json"
                );
                for (name, m) in match metrics {
                    Content::Map(e) => e,
                    _ => unreachable!(),
                } {
                    assert_eq!(keys(m), ["value", "unit"], "{name}");
                    assert!(
                        matches!(m.get("value"), Some(Content::F64(v)) if v.is_finite()),
                        "{workload} {name}: {m:?}"
                    );
                }
                // Every metric also appears as a `workload metric value unit` line.
                for name in keys(metrics) {
                    let prefix = format!("{workload} {name} ");
                    assert!(stdout.lines().any(|l| l.starts_with(&prefix)), "{prefix}");
                }
            }
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed.as_secs_f64() < 10.0,
            "a smoke pass of all four workloads, traced and untraced, took {elapsed:?}"
        );
    }

    // The traced runs wrote Chrome traces (already validated in-binary).
    for workload in &workloads {
        let path = repo_root().join(format!("benchmark/results/trace-smoke-{workload}.json"));
        let trace = parse(&std::fs::read_to_string(&path).expect("trace file"));
        assert!(matches!(trace.get("traceEvents"), Some(Content::Seq(e)) if !e.is_empty()));
        std::fs::remove_file(path).unwrap();
    }

    // Result files end with the claim, and compare to each other cleanly:
    // the exact counts match and nothing regresses by its bound's measure.
    let text = std::fs::read_to_string(&results[0]).unwrap();
    assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");
    let a = parse(&text);
    assert_eq!(keys(a.get("end_to_end").unwrap()), workloads);
    assert_eq!(keys(a.get("traced").unwrap()), workloads);
    // The layer suite is stored once: each traced run's value and their
    // median. Only the replay's own ratio is kept per workload.
    let per_workload = "bench.parts_over_whole";
    let layers = a.get("per_layer").unwrap();
    let suite: Vec<String> = names(&contract, "per_layer")
        .into_iter()
        .filter(|n| n != per_workload)
        .collect();
    assert_eq!(keys(layers), suite);
    for name in &suite {
        let entry = layers.get(name).unwrap();
        assert_eq!(keys(entry), ["value", "unit", "runs"], "{name}");
        assert_eq!(keys(entry.get("runs").unwrap()), workloads, "{name}");
    }
    for workload in &workloads {
        let run = a.get("traced").unwrap().get(workload).unwrap();
        assert_eq!(keys(run.get("metrics").unwrap()), [per_workload]);
    }
    let (_, report) = bench(&[
        "--compare",
        results[0].to_str().unwrap(),
        results[1].to_str().unwrap(),
    ]);
    for exact in ["wire_bytes_per_step", "linear_cache_mb"] {
        let line = report
            .lines()
            .find(|l| l.contains(exact))
            .unwrap_or_else(|| panic!("no {exact} row in\n{report}"));
        assert!(line.ends_with("pass identical"), "{line}");
    }
    for det in [
        "train-bf16 final_loss",
        "train-fp4 final_loss",
        "dp2-socket-fp4 final_loss",
    ] {
        let line = report.lines().find(|l| l.starts_with(det)).expect(det);
        assert!(line.ends_with("pass identical"), "{line}");
    }
    assert!(report.contains("\ntensor.matmul_ffn_ms "), "{report}");
    assert!(
        report.contains("\ntrain-bf16 bench.parts_over_whole "),
        "{report}"
    );
}

#[test]
fn bad_command_lines_exit_with_usage() {
    let (ok, stdout) = bench(&["--workload", "no-such-workload", "--seed", "0"]);
    assert!(!ok && stdout.is_empty());
    let (ok, _) = bench(&["--compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert!(!ok);
}
