//! `bench_train`: the repository's end-to-end, layer-attributed training
//! benchmark. See `benchmark/README.md` for the workloads, the metrics and
//! how they interact; `BENCHMARK.json` at the repository root is the
//! contract a driver runs it by.
//!
//! ```text
//! bench_train --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!             [--smoke] [--out results.json --label L --commit C]
//! bench_train --compare a.json b.json
//! ```
//!
//! Every metric is printed as `workload metric value unit`; the last line of
//! standard output is one JSON object with the contract's metrics.

mod compare;
mod fixture;
mod json;
mod layers;
mod metrics;
mod replay;
mod spans;
mod stats;
mod workloads;

use fixture::{Fixture, Seeds};
use metrics::{Measured, ADAPTIVE_SNIP, DP2_SOCKET_FP4, PARTS_OVER_WHOLE, TRAIN_BF16, TRAIN_FP4};
use serde::Content;
use snip_quant::Precision;
use workloads::{Outcome, TrainerKind};

const USAGE: &str = "usage: bench_train --workload <train-bf16|train-fp4|adaptive-snip|dp2-socket-fp4> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <results.json> --label <l> --commit <c>]\n       \
bench_train --compare <a.json> <b.json>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    label: String,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: workloads::NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        label: "run".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = Some(value.clone()),
            "--label" => args.label = value.clone(),
            "--commit" => args.commit = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|(n, _)| *n == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn trainer_kind(workload: &str) -> Option<TrainerKind> {
    match workload {
        TRAIN_BF16 => Some(TrainerKind::Uniform(Precision::Bf16)),
        TRAIN_FP4 => Some(TrainerKind::Uniform(Precision::Fp4)),
        ADAPTIVE_SNIP => Some(TrainerKind::Adaptive),
        _ => None,
    }
}

/// The end-to-end run: tracing off.
fn run_end_to_end(args: &Args, fx: &Fixture, seeds: Seeds) -> Outcome {
    // Whatever `SNIP_TRACE` the caller's environment carries.
    snip_obs::set_enabled(false);
    let mut out = match trainer_kind(&args.workload) {
        Some(kind) => workloads::train(kind, fx, seeds, args.seconds),
        None => {
            debug_assert_eq!(args.workload, DP2_SOCKET_FP4);
            workloads::dp2(fx, seeds, args.seconds)
        }
    };
    match workloads::peak_rss_mb() {
        Some(mb) => out.push("peak_rss_mb", mb),
        None => out.violate("VmHWM is not readable from /proc/self/status".into()),
    }
    out
}

fn trace_path(args: &Args) -> std::path::PathBuf {
    let smoke = if args.smoke { "smoke-" } else { "" };
    format!("benchmark/results/trace-{smoke}{}.json", args.workload).into()
}

/// The traced run: the workload replayed under spans, then every layer
/// timed on its own.
fn run_traced(args: &Args, fx: &Fixture, seeds: Seeds) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = spans::Recorder::new();
    let mut pair = replay::warmed_pair(fx, seeds, &mut out);
    let kind = trainer_kind(&args.workload);
    let parts_over_whole = match kind {
        Some(kind) => replay::trainer(kind, fx, seeds, args.seconds, &mut pair, &mut rec, &mut out),
        None => replay::dp2(fx, seeds, &mut pair[0], &mut rec, &mut out),
    };
    if kind.is_some() && !(0.95..=1.05).contains(&parts_over_whole) {
        out.notes.push(format!(
            "bench.parts_over_whole {parts_over_whole:.3} is outside 0.95-1.05: the parts do not account for the step"
        ));
    }

    let path = trace_path(args);
    let written = rec.write(&path).map_err(|e| e.to_string()).and_then(|()| {
        let back = json::read_file(&path.to_string_lossy())?;
        spans::validate_trace(&back)
    });
    match written {
        Ok(n) => out.notes.push(format!("{n} spans in {}", path.display())),
        Err(e) => out.violate(format!("trace {}: {e}", path.display())),
    }

    let layers = layers::run(fx, seeds, args.seconds, &mut pair);
    out.notes.extend(layers.notes);
    out.metrics.extend(
        layers
            .values
            .into_iter()
            .map(|(name, value)| Measured::new(name, value)),
    );
    out.push(PARTS_OVER_WHOLE, parts_over_whole);
    let _ = std::fs::remove_dir(workloads::PROC_TMPDIR);
    out
}

/// The names the last output line must carry in this mode.
fn contract_names(trace: bool) -> Vec<&'static str> {
    if trace {
        metrics::PER_LAYER.iter().map(|(n, ..)| *n).collect()
    } else {
        metrics::END_TO_END
            .iter()
            .filter(|m| m.driver_bound.is_some())
            .map(|m| m.name)
            .collect()
    }
}

fn metric_entry(m: &Measured, with_spread: bool) -> Content {
    let unit = metrics::unit_of(m.name).expect("every printed metric is declared");
    let mut fields = vec![("value", Content::F64(m.value)), ("unit", json::str(unit))];
    if with_spread {
        fields.push(("spread", Content::F64(m.spread)));
    }
    json::map(fields)
}

fn result_line(args: &Args, out: &Outcome) -> Content {
    let metrics = contract_names(args.trace)
        .into_iter()
        .filter_map(|name| out.metrics.iter().find(|m| m.name == name))
        .map(|m| (m.name.to_string(), metric_entry(m, false)))
        .collect();
    json::map(vec![
        ("correct", Content::Bool(out.failed == 0)),
        ("attempted", Content::U64(out.attempted.max(1))),
        ("failed", Content::U64(out.failed)),
        ("metrics", Content::Map(metrics)),
    ])
}

fn machine(args: &Args) -> Content {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    json::map(vec![
        ("nproc", Content::U64(nproc as u64)),
        ("arch", json::str(std::env::consts::ARCH)),
        ("simd_backend", json::str(snip_tensor::simd::backend())),
        ("commit", json::str(&args.commit)),
    ])
}

/// Adds this run to the result file `run.sh` collects a whole set in. An
/// end-to-end run fills `end_to_end.<workload>`. A traced run fills
/// `traced.<workload>` with what depends on the workload, and adds its
/// timing of the layer suite, which does not, to `per_layer.<metric>.runs`;
/// a layer metric's value is the median over the traced runs recorded.
fn merge_into_result_file(path: &str, args: &Args, out: &Outcome) -> Result<(), String> {
    let old = match std::fs::metadata(path) {
        Ok(_) => json::read_file(path)?,
        Err(_) => Content::Map(Vec::new()),
    };
    let section = |key: &str| old.get(key).cloned().unwrap_or(Content::Map(Vec::new()));
    let (mut end_to_end, mut traced, mut per_layer) = (
        section("end_to_end"),
        section("traced"),
        section("per_layer"),
    );

    // Of a traced run, only the replay's ratio depends on the workload.
    let per_workload = |m: &Measured| !args.trace || m.name == PARTS_OVER_WHOLE;
    let entry = json::map(vec![
        ("seconds", Content::F64(args.seconds)),
        ("attempted", Content::U64(out.attempted)),
        ("failed", Content::U64(out.failed)),
        ("correct", Content::Bool(out.failed == 0)),
        (
            "pool_threads",
            Content::U64(snip_tensor::pool::size() as u64),
        ),
        (
            "metrics",
            Content::Map(
                out.metrics
                    .iter()
                    .filter(|m| per_workload(m))
                    .map(|m| (m.name.to_string(), metric_entry(m, !args.trace)))
                    .collect(),
            ),
        ),
    ]);
    if args.trace {
        json::set(&mut traced, &args.workload, entry);
        for (name, unit, _) in metrics::PER_LAYER {
            let Some(m) = out
                .metrics
                .iter()
                .find(|m| m.name == name && !per_workload(m))
            else {
                continue;
            };
            let mut runs = per_layer
                .get(m.name)
                .and_then(|e| e.get("runs"))
                .cloned()
                .unwrap_or(Content::Map(Vec::new()));
            json::set(&mut runs, &args.workload, Content::F64(m.value));
            let values: Vec<f64> = json::entries(&runs)
                .iter()
                .filter_map(|(_, v)| json::as_num(v))
                .collect();
            let layer = json::map(vec![
                ("value", Content::F64(stats::median(&values))),
                ("unit", json::str(unit)),
                ("runs", runs),
            ]);
            json::set(&mut per_layer, m.name, layer);
        }
    } else {
        json::set(&mut end_to_end, &args.workload, entry);
    }
    let doc = json::map(vec![
        ("label", json::str(&args.label)),
        ("seed", Content::U64(args.seed)),
        ("smoke", Content::Bool(args.smoke)),
        ("machine", machine(args)),
        ("end_to_end", end_to_end),
        ("traced", traced),
        ("per_layer", per_layer),
        // This benchmark reports numbers; it claims no gain.
        ("claim", Content::Null),
    ]);
    std::fs::write(path, json::pretty(&doc, json::LINE_WIDTH)).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    // The socket launcher re-executes this binary as its rank workers.
    snip_pipeline::transport::proc::worker_boot();

    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            std::process::exit(2);
        };
        std::process::exit(compare::run(a, b));
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("bench_train: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let fx = if args.smoke {
        Fixture::smoke()
    } else {
        Fixture::full()
    };
    let seeds = Seeds::derive(args.seed);
    let run = || {
        if args.trace {
            run_traced(&args, &fx, seeds)
        } else {
            run_end_to_end(&args, &fx, seeds)
        }
    };
    let mut out =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|_| {
            let mut out = Outcome::default();
            out.violate("the workload panicked".into());
            out
        });

    for name in contract_names(args.trace) {
        if !out.metrics.iter().any(|m| m.name == name) {
            out.violate(format!("metric {name} was not measured"));
        }
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            out.failed += 1;
            out.violations
                .push(format!("metric {} is not finite", m.name));
            m.value = 0.0;
        }
    }

    for m in &out.metrics {
        let unit = metrics::unit_of(m.name).expect("every printed metric is declared");
        println!("{} {} {} {unit}", args.workload, m.name, m.value);
    }
    println!("{} ops {} count", args.workload, out.attempted);
    println!("{} failed_ops {} count", args.workload, out.failed);
    for note in &out.notes {
        eprintln!("note: {note}");
    }
    for v in &out.violations {
        eprintln!("VIOLATION: {v}");
    }
    if let Some(path) = &args.out {
        if let Err(e) = merge_into_result_file(path, &args, &out) {
            eprintln!("VIOLATION: result file {e}");
            out.failed += 1;
        }
    }
    println!("{}", json::compact(&result_line(&args, &out)));
    std::process::exit(if out.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload train-fp4 --seed 7 --seconds 25 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train-fp4", 7, 25.0, true)
        );
        assert!(!a.smoke && a.out.is_none());
        assert!(parse_args(&argv("--workload nope --seed 0")).is_err());
        assert!(parse_args(&argv("--workload train-fp4 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload train-fp4 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload train-fp4 --seed")).is_err());
    }

    #[test]
    fn result_line_carries_exactly_the_contract_metrics() {
        let args = parse_args(&argv("--workload train-bf16 --seed 0 --trace 0")).unwrap();
        let mut out = Outcome {
            attempted: 10,
            ..Default::default()
        };
        for name in contract_names(false) {
            out.push(name, 1.5);
        }
        // Declared for this workload but outside the driver's contract.
        out.push("step_ms_p80", 2.0);
        out.push("linear_cache_mb", 3.0);
        let line = result_line(&args, &out);
        let keys: Vec<&str> = json::entries(&line)
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let printed: Vec<&str> = json::entries(line.get("metrics").unwrap())
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(printed, contract_names(false));
        let text = json::compact(&line);
        assert!(
            text.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,"),
            "{text}"
        );
        assert!(
            text.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"),
            "{text}"
        );
    }

    #[test]
    fn every_workload_has_a_runner_and_every_metric_a_unit() {
        for (w, _) in metrics::WORKLOADS {
            assert!(trainer_kind(w).is_some() || w == DP2_SOCKET_FP4);
        }
        for name in contract_names(true)
            .into_iter()
            .chain(contract_names(false))
        {
            assert!(metrics::unit_of(name).is_some(), "{name}");
        }
        assert_eq!(contract_names(true).len(), 66);
        assert_eq!(metrics::END_TO_END.len(), 9);
    }
}
