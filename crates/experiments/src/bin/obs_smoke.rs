//! Observability smoke check (the CI `obs-smoke` job).
//!
//! Runs a real two-rank `data_parallel_train` over the threaded transport
//! with `SNIP_TRACE` collection on, then validates the two artifacts the
//! run emits against the schemas checked into `crates/obs/schema/`:
//!
//! * the Chrome trace — well-formed JSON, required event keys, monotonic
//!   span timestamps (loads in Perfetto / `chrome://tracing`);
//! * `RUN_REPORT.json` — required top-level keys, histogram shape, and the
//!   `transport` / `training` sections, the latter with SNIP's cost
//!   (`snip_updates`, `snip_overhead_frac`) from one scheme update that
//!   rank 0 runs through `train_with_engine` after the collective steps.
//!
//! Beyond shape, it pins the one cross-artifact number that keeps the
//! telemetry honest: the report's transport payload bytes must equal both
//! the measured per-link counters **and** the analytic
//! [`snip_pipeline::comm::codec_wire_bytes`] volume of every ring
//! all-reduce the run performed — byte for byte.
//!
//! Usage: `SNIP_TRACE=trace.json cargo run -p snip-experiments --bin
//! obs_smoke`.

use snip_core::{SnipConfig, SnipEngine, Trainer, TrainerConfig};
use snip_pipeline::collective::{chunk_bounds, QuantizePolicy, Wire};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::data_parallel_train;

fn main() {
    let Some(trace_path) = snip_obs::trace_path() else {
        eprintln!("obs_smoke: SNIP_TRACE must name a trace file, e.g.");
        eprintln!("  SNIP_TRACE=trace.json cargo run -p snip-experiments --bin obs_smoke");
        std::process::exit(2);
    };
    assert!(snip_obs::enabled(), "a trace path implies collection is on");

    const WORLD: usize = 2;
    const STEPS: u64 = 2;
    let wire = Wire::fp4(16);
    let trainers: Vec<Trainer> = (0..WORLD)
        .map(|_| Trainer::new(TrainerConfig::tiny()).expect("tiny trainer"))
        .collect();

    let (mut trainers, losses, stats) =
        data_parallel_train(trainers, STEPS, &wire, QuantizePolicy::EveryHop, 0xC0FFEE);
    assert!(
        losses.iter().flatten().all(|l| l.is_finite()),
        "training diverged"
    );
    // One SNIP scheme update on rank 0 (due at its current step), so the
    // report's overhead fraction has a probe and a solve to account for.
    const ENGINE_STEPS: u64 = 1;
    let engine = SnipEngine::new(
        SnipConfig {
            update_period: STEPS,
            ..Default::default()
        },
        trainers[0].config().model.clone(),
    );
    let _ = trainers[0].train_with_engine(ENGINE_STEPS, &engine);
    // Adds the `training` section and rewrites both artifacts (the flush
    // inside `data_parallel_train` already wrote a transport-only report;
    // flushing is idempotent over the full registry state).
    trainers[0]
        .write_run_report(WORLD)
        .expect("writing run artifacts")
        .expect("collection is on and a path is set");

    // The analytic oracle: every step all-reduces every parameter gradient.
    // A ring all-reduce moves each of the `WORLD` chunks through
    // 2×(WORLD−1) hops (reduce-scatter + all-gather), each hop shipping the
    // codec's exact packed volume for a 1×len tensor.
    let codec = wire.codec().expect("fp4 wire has a codec");
    let analytic: u64 = {
        let mut per_step = 0u64;
        trainers[0].model.visit_params_mut(&mut |p| {
            per_step += 2
                * (WORLD as u64 - 1)
                * chunk_bounds(p.numel(), WORLD)
                    .iter()
                    .map(|&(lo, hi)| codec_wire_bytes(codec, 1, hi - lo, wire.bits()))
                    .sum::<u64>();
        });
        per_step * STEPS
    };
    assert_eq!(
        stats.total_payload_bytes(),
        analytic,
        "measured transport bytes diverge from codec_wire_bytes"
    );

    let trace = std::fs::read_to_string(&trace_path).expect("trace artifact exists");
    let report_path = trace_path.with_file_name("RUN_REPORT.json");
    let report = std::fs::read_to_string(&report_path).expect("report artifact exists");

    let tcheck = snip_obs::report::validate_chrome_trace(&trace)
        .unwrap_or_else(|e| panic!("trace fails its schema: {e}"));
    assert!(tcheck.events > 0, "trace has no events");
    let rcheck = snip_obs::report::validate_run_report(&report)
        .unwrap_or_else(|e| panic!("report fails its schema: {e}"));
    assert_eq!(
        rcheck.transport_payload_bytes,
        Some(analytic),
        "report transport bytes diverge from codec_wire_bytes"
    );
    assert_eq!(
        rcheck.transport_envelope_bytes,
        Some(stats.total_envelope_bytes()),
        "report envelope bytes diverge from the measured counters"
    );
    assert_eq!(
        rcheck.training_steps,
        Some(STEPS + ENGINE_STEPS),
        "report step count"
    );
    assert_eq!(rcheck.snip_updates, Some(1), "report SNIP update count");
    let overhead = rcheck
        .snip_overhead_frac
        .expect("report carries the SNIP overhead fraction");
    assert!(overhead > 0.0, "one update ran, so its share is positive");

    println!("obs_smoke: PASS");
    println!(
        "  trace:  {} ({} events)",
        trace_path.display(),
        tcheck.events
    );
    println!("  report: {}", report_path.display());
    println!("  transport payload bytes: {analytic} (measured == analytic codec_wire_bytes)");
    println!("  snip overhead: {overhead:.3} of step time over 1 update");
}
