//! RAII span timing and Chrome trace-event export.
//!
//! [`span`] returns a guard that, when collection is on, records a complete
//! event (`ph: "X"`) on drop: wall-clock start and duration against a
//! process-wide epoch, plus the span's duration into the histogram of the
//! same name (so `RUN_REPORT.json` carries span statistics even when the
//! trace file itself is not inspected). When collection is off the guard is
//! inert and construction costs one relaxed atomic load.
//!
//! [`crate::flush`] writes everything recorded so far in the
//! Chrome trace-event JSON object format (`{"traceEvents": [...]}`), which
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly. Events
//! are sorted by timestamp so consumers (including the checked-in schema
//! validator) can rely on monotonic non-decreasing `ts`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Hard cap on buffered events per thread: a runaway span site degrades to
/// a `trace.dropped_events` counter instead of unbounded memory growth.
const MAX_EVENTS_PER_THREAD: usize = 1 << 20;

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (first use wins).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span, in epoch-relative nanoseconds.
#[derive(Clone, Debug)]
pub(crate) struct TraceEvent {
    /// Span name (the `name` field of the Chrome event).
    pub name: &'static str,
    /// Small dense id of the recording thread.
    pub tid: u64,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

struct ThreadBuf {
    events: Mutex<Vec<TraceEvent>>,
}

fn sinks() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

fn next_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Relaxed)
}

thread_local! {
    static LOCAL: RefCell<Option<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(u64, &ThreadBuf) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let (tid, buf) = slot.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf {
                events: Mutex::new(Vec::new()),
            });
            sinks().lock().expect("trace sinks").push(Arc::clone(&buf));
            (next_tid(), buf)
        });
        f(*tid, buf)
    })
}

/// Records one finished span. Public so instrumentation that measures
/// durations itself (e.g. cross-thread queue waits) can emit events without
/// a guard.
pub(crate) fn record_event(name: &'static str, start_ns: u64, dur_ns: u64) {
    with_local(|tid, buf| {
        let mut events = buf.events.lock().expect("trace buffer");
        if events.len() < MAX_EVENTS_PER_THREAD {
            events.push(TraceEvent {
                name,
                tid,
                start_ns,
                dur_ns,
            });
        } else {
            crate::registry::counter_add("trace.dropped_events", 1);
        }
    });
    crate::registry::hist_record(name, dur_ns);
}

/// RAII span guard: measures from construction to drop.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    live: bool,
}

/// Opens a span named `name`. Inert (one relaxed load, no clock read) when
/// collection is off.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span {
            name,
            start_ns: 0,
            live: false,
        };
    }
    Span {
        name,
        start_ns: now_ns(),
        live: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            let dur = now_ns().saturating_sub(self.start_ns);
            record_event(self.name, self.start_ns, dur);
        }
    }
}

/// Snapshot of every event recorded so far, in timestamp order. The buffers
/// are not drained: repeated exports each see the complete trace.
pub(crate) fn events_snapshot() -> Vec<TraceEvent> {
    let bufs: Vec<Arc<ThreadBuf>> = sinks().lock().expect("trace sinks").clone();
    let mut all = Vec::new();
    for buf in bufs {
        all.extend(buf.events.lock().expect("trace buffer").iter().cloned());
    }
    all.sort_by_key(|e| (e.start_ns, e.tid));
    all
}

// Chrome trace-event JSON uses camelCase/short keys; the derive serializes
// field identifiers verbatim, so the structs spell them exactly.
#[derive(serde::Serialize, serde::Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    pid: u64,
    tid: u64,
    ts: f64,
    dur: f64,
}

#[allow(non_snake_case)]
#[derive(serde::Serialize, serde::Deserialize)]
struct ChromeTrace {
    traceEvents: Vec<ChromeEvent>,
    displayTimeUnit: String,
}

/// Serializes all recorded spans as a Chrome trace-event JSON object.
/// Timestamps and durations are microseconds (the trace format's unit),
/// sorted so `ts` is non-decreasing.
pub(crate) fn chrome_trace_json() -> String {
    let pid = std::process::id() as u64;
    let trace = ChromeTrace {
        traceEvents: events_snapshot()
            .into_iter()
            .map(|e| ChromeEvent {
                name: e.name.to_string(),
                cat: "snip".to_string(),
                ph: "X".to_string(),
                pid,
                tid: e.tid,
                ts: e.start_ns as f64 / 1000.0,
                dur: e.dur_ns as f64 / 1000.0,
            })
            .collect(),
        displayTimeUnit: "ms".to_string(),
    };
    serde_json::to_string(&trace).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_span_records_nothing() {
        let _serial = crate::test_state_lock();
        let _off = crate::enabled_scope(false);
        let before = events_snapshot().len();
        {
            let _s = span("test.trace.inert");
        }
        assert_eq!(events_snapshot().len(), before);
    }

    #[test]
    fn events_export_sorted_and_parseable() {
        let _serial = crate::test_state_lock(); // records: keep off `inert_span_records_nothing`
        record_event("test.trace.b", 2_000, 500);
        record_event("test.trace.a", 1_000, 250);
        let events = events_snapshot();
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        let json = chrome_trace_json();
        let parsed: ChromeTrace = serde_json::from_str(&json).expect("well-formed trace");
        assert!(parsed.traceEvents.len() >= 2);
        assert!(parsed.traceEvents.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
