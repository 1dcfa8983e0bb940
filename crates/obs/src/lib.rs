//! # snip-obs
//!
//! Zero-overhead-when-off telemetry for the SNIP stack: a process-wide
//! metric registry ([`registry`]: counters, gauges, fixed-bucket
//! histograms aggregated from lock-free per-thread shards), RAII span
//! timing with Chrome trace-event export ([`trace`]), quantization-signal
//! accumulators for the adaptive-precision controller ([`quantsig`]), and
//! the per-run `RUN_REPORT.json` artifact plus schema validators
//! ([`report`]). Shared environment-variable parsing lives in [`env`](mod@env) and
//! is reused by `SNIP_SIMD` and `SNIP_THREADS` through `snip-tensor`.
//!
//! ## Activation
//!
//! Collection is off by default and env-gated through `SNIP_TRACE`,
//! parsed once per process exactly like `SNIP_SIMD`:
//!
//! | value | effect |
//! |---|---|
//! | unset, `0`, `off`, `false` | disabled (the default) |
//! | `1`, `on`, `true` | collect; artifacts go to `./snip_trace.json` + `./RUN_REPORT.json` |
//! | any path ending in `.json` | collect; trace to that path, report beside it |
//!
//! Anything else warns once to stderr with the accepted-value table and
//! leaves collection off. Instrumented hot paths check [`enabled`] first,
//! so **the disabled path costs a single relaxed atomic load** — no clock
//! read, no allocation, no lock.
//!
//! ## The zero-bit contract
//!
//! Telemetry observes; it never participates. Turning collection on or off
//! changes **zero bits** of any numeric result anywhere in the stack — the
//! engine's determinism suites (`pool_determinism`, `simd_scalar`, the
//! transport equivalence tests) pass identically under `SNIP_TRACE=1`, and
//! `crates/pipeline/tests/obs_zero_bit.rs` property-tests kernels,
//! quantizers and collectives with collection force-toggled both ways.
//! This is what makes the global [`set_enabled`] test hook safe.
//!
//! ## Who reports what
//!
//! Four layers above this crate record into it; none of them depends on
//! another for its telemetry:
//!
//! - `snip-tensor`: the pool's queue-wait and job-latency histograms, GEMM
//!   dispatch counts per backend, and the B-tile cache's hit and build
//!   counters;
//! - `snip-quant`: every pack reports its signals through one computation
//!   (its crate-internal `signals::pack_signal`) into [`quantsig`], plus
//!   leaf-level `quant.ns` timers;
//! - `snip-pipeline`: both transport drivers export their merged
//!   two-sided link counters through `transport::publish_transport_stats`,
//!   on success and on failure — the process launcher after merging the
//!   ledgers its workers' reports carry, since a worker's own registry
//!   dies with it;
//! - `snip-core`: `train_step` spans, `trainer.steps` / `trainer.loss`,
//!   and `Trainer::write_run_report`.
//!
//! ## Artifacts
//!
//! With a path, the end of a `data_parallel_train` /
//! `proc_data_parallel_train` run (or an explicit
//! `Trainer::write_run_report`) calls [`flush`], which writes a Chrome
//! trace-event JSON loadable in Perfetto and `RUN_REPORT.json` beside it:
//! counters, gauges, histograms, quant signals and the domain sections
//! (`transport`, `training`) that layers publish through
//! [`report::set_section`] right before the flush. The schemas live in
//! `crates/obs/schema/`; [`report::validate_chrome_trace`] and
//! [`report::validate_run_report`] enforce them, and CI's `obs-smoke` job
//! runs both against a real two-rank training run (which also asserts the
//! report's transport bytes equal `comm::codec_wire_bytes`, exactly).
//!
//! ## The controller-signal seam
//!
//! [`quantsig`] accumulates, per quantizer kind, the cheap signals a
//! precision policy needs — per-pack abs-max, group-scale saturation rate,
//! clip counts and mean packed-round error — so a controller can read
//! [`quantsig::snapshot`] instead of inventing probes of its own.
//!
//! ## Worked example: a trace you can open in Perfetto
//!
//! ```no_run
//! // SNIP_TRACE=trace.json ./my_run   (or set_enabled(true) in-process)
//! {
//!     let _step = snip_obs::span("train_step");          // RAII: ends at scope exit
//!     snip_obs::counter_add("demo.widgets", 3);          // lock-free after first touch
//!     snip_obs::hist_record("demo.latency_ns", 1_234);   // power-of-two buckets
//! }
//! if let Ok(Some(artifacts)) = snip_obs::flush() {
//!     // artifacts.trace_path now holds {"traceEvents":[{"name":"train_step",
//!     // "ph":"X","ts":...,"dur":...,...}]} — drag it into https://ui.perfetto.dev
//!     // or chrome://tracing and the span appears on its thread's track.
//!     // artifacts.report_path holds RUN_REPORT.json with the counter, the
//!     // histogram, and every other metric the run recorded.
//!     println!("trace: {}", artifacts.trace_path.display());
//! }
//! ```
//!
//! ## Adding a metric
//!
//! 1. Pick a dotted `&'static str` name namespaced by crate
//!    (`"pool.queue_wait_ns"`, `"gemm.dispatch.avx2"`).
//! 2. At the recording site, gate on [`enabled`] and call
//!    [`counter_add`]/[`hist_record`]/[`gauge_set`] — or wrap the region in
//!    [`span`], which is self-gating.
//! 3. Nothing else: the metric appears in `RUN_REPORT.json` (and, for
//!    spans, the Chrome trace) automatically at the next [`flush`].
//!
//! Counters and histograms merge lock-free per-thread shards; the
//! registry's mutex is taken only on a thread's first use of a name. Any
//! new instrumentation keeps both properties above: the disabled path is
//! one relaxed load, and recording changes no result bit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
use std::sync::OnceLock;

pub mod env;
pub mod quantsig;
pub mod registry;
pub mod report;
pub mod trace;

pub use registry::{
    counter_add, counter_value, gauge_set, hist_record, hist_snapshot, thread_counter_value,
};
pub use trace::{span, Span};

/// Accepted-value table for `SNIP_TRACE`, shown by the warn-once path.
pub(crate) const SNIP_TRACE_ACCEPTED: &str =
    "0|off|false (disabled), 1|on|true (trace to ./snip_trace.json), or a trace path ending in .json";

// 0 = not yet initialized, 1 = collection off, 2 = collection on.
static STATE: AtomicU8 = AtomicU8::new(0);

#[derive(Clone, Debug)]
struct TraceConfig {
    collect: bool,
    trace_path: Option<PathBuf>,
}

fn parse_trace(v: &str) -> Option<TraceConfig> {
    match v.to_ascii_lowercase().as_str() {
        "0" | "off" | "false" => Some(TraceConfig {
            collect: false,
            trace_path: None,
        }),
        "1" | "on" | "true" => Some(TraceConfig {
            collect: true,
            trace_path: Some(PathBuf::from("snip_trace.json")),
        }),
        lower if lower.ends_with(".json") => Some(TraceConfig {
            collect: true,
            // Keep the caller's spelling, not the lowercased probe.
            trace_path: Some(PathBuf::from(v)),
        }),
        _ => None,
    }
}

fn config() -> &'static TraceConfig {
    static CONFIG: OnceLock<TraceConfig> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let cfg =
            env::read("SNIP_TRACE", SNIP_TRACE_ACCEPTED, parse_trace).unwrap_or(TraceConfig {
                collect: false,
                trace_path: None,
            });
        STATE.store(if cfg.collect { 2 } else { 1 }, Relaxed);
        cfg
    })
}

/// Whether telemetry collection is on. This is the hot-path gate: after the
/// first call it is exactly one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Relaxed) {
        2 => true,
        1 => false,
        _ => {
            config();
            STATE.load(Relaxed) == 2
        }
    }
}

/// Force collection on or off, returning the previous state. Safe at any
/// point because of the zero-bit contract (collection never changes
/// results); used by `comm_precision` to surface step timings without the
/// env var, and by the zero-bit property tests to A/B a single process.
pub fn set_enabled(on: bool) -> bool {
    let _ = config(); // pin env parsing so a later init cannot overwrite us
    STATE.swap(if on { 2 } else { 1 }, Relaxed) == 2
}

/// RAII guard from [`enabled_scope`]: restores the previous state on drop.
#[must_use = "the guard restores the previous state when dropped"]
pub struct EnabledGuard {
    prev: bool,
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        set_enabled(self.prev);
    }
}

/// Scoped [`set_enabled`]: forces collection `on` until the guard drops.
pub fn enabled_scope(on: bool) -> EnabledGuard {
    EnabledGuard {
        prev: set_enabled(on),
    }
}

/// The trace file path configured through `SNIP_TRACE`, if any.
pub fn trace_path() -> Option<PathBuf> {
    config().trace_path.clone()
}

/// Paths written by [`flush`].
#[derive(Clone, Debug)]
pub struct Artifacts {
    /// The Chrome trace-event JSON file.
    pub trace_path: PathBuf,
    /// The `RUN_REPORT.json` beside it.
    pub report_path: PathBuf,
}

/// Writes the Chrome trace and `RUN_REPORT.json` to the paths configured
/// through `SNIP_TRACE`. Returns `Ok(None)` when the env var did not
/// request artifacts (collection off, or forced on programmatically).
/// Idempotent: each call rewrites both files from the full current state,
/// so end-of-run callers may flush more than once.
pub fn flush() -> std::io::Result<Option<Artifacts>> {
    let cfg = config();
    let Some(trace_path) = cfg.trace_path.clone().filter(|_| cfg.collect) else {
        return Ok(None);
    };
    let report_path = match trace_path.parent() {
        Some(dir) => dir.join("RUN_REPORT.json"),
        None => PathBuf::from("RUN_REPORT.json"),
    };
    std::fs::write(&trace_path, trace::chrome_trace_json())?;
    std::fs::write(&report_path, report::report_json())?;
    Ok(Some(Artifacts {
        trace_path,
        report_path,
    }))
}

/// Serializes unit tests that flip the global collection state against the
/// ones that assert on it (test threads share the process-wide flag).
#[cfg(test)]
pub(crate) fn test_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_values_parse_as_documented() {
        for off in ["0", "off", "OFF", "false"] {
            let c = parse_trace(off).expect(off);
            assert!(!c.collect, "{off}");
        }
        for on in ["1", "on", "true", "True"] {
            let c = parse_trace(on).expect(on);
            assert!(c.collect, "{on}");
            assert_eq!(
                c.trace_path.as_deref(),
                Some(std::path::Path::new("snip_trace.json"))
            );
        }
        let c = parse_trace("out/My_Trace.json").expect("path value");
        assert!(c.collect);
        assert_eq!(
            c.trace_path.as_deref(),
            Some(std::path::Path::new("out/My_Trace.json"))
        );
        assert!(parse_trace("yes").is_none());
        assert!(parse_trace("trace.txt").is_none());
    }

    #[test]
    fn scoped_enable_restores_previous_state() {
        let _serial = test_state_lock();
        let was = enabled();
        {
            let _g = enabled_scope(true);
            assert!(enabled());
            {
                let _inner = enabled_scope(false);
                assert!(!enabled());
            }
            assert!(enabled());
        }
        assert_eq!(enabled(), was);
    }
}
