//! The per-run report artifact (`RUN_REPORT.json`) and the checked-in
//! schema validators used by CI's observability smoke job.
//!
//! The report is a single JSON object merging everything the registry
//! knows at flush time — counters, gauges, histograms, quantization
//! signals — plus named sections contributed by higher layers through
//! [`set_section`] (`snip-pipeline` publishes `transport`, `snip-core`
//! publishes `training`). Schemas for both artifacts are checked into
//! `crates/obs/schema/` and compiled in with `include_str!`, so the
//! validators ([`validate_run_report`], [`validate_chrome_trace`]) always
//! enforce exactly the committed contract.

use serde::Content;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Identity wrapper giving any [`Content`] tree `Serialize`/`Deserialize`,
/// i.e. a generic JSON value for the vendored facade (which has no `Value`
/// type of its own).
#[derive(Clone, Debug, PartialEq)]
pub struct Json(pub Content);

impl serde::Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        Ok(Json(c.clone()))
    }
}

/// The committed report schema (see `crates/obs/schema/`).
pub(crate) const RUN_REPORT_SCHEMA: &str = include_str!("../schema/run_report.schema.json");
/// The committed trace schema (see `crates/obs/schema/`).
pub(crate) const CHROME_TRACE_SCHEMA: &str = include_str!("../schema/chrome_trace.schema.json");

fn sections() -> &'static Mutex<BTreeMap<String, Content>> {
    static S: OnceLock<Mutex<BTreeMap<String, Content>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Publishes (or replaces) a named top-level report section. Layers that
/// own domain state call this right before flushing — e.g. the transport
/// publishes its merged per-link byte counters as `"transport"`.
pub fn set_section(name: &str, value: Content) {
    sections()
        .lock()
        .expect("report sections")
        .insert(name.to_string(), value);
}

fn u64_content(v: u64) -> Content {
    Content::U64(v)
}

fn finite_f64(v: f64) -> Content {
    Content::F64(v)
}

/// Builds the full report tree from the current registry state.
pub fn build_report() -> Content {
    let snap = crate::registry::snapshot();
    let mut top: Vec<(String, Content)> = vec![
        ("schema".to_string(), u64_content(1)),
        (
            "generated_by".to_string(),
            Content::Str("snip-obs".to_string()),
        ),
        (
            "trace_path".to_string(),
            match crate::trace_path() {
                Some(p) => Content::Str(p.display().to_string()),
                None => Content::Null,
            },
        ),
        (
            "counters".to_string(),
            Content::Map(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), u64_content(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges".to_string(),
            Content::Map(
                snap.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), finite_f64(*v)))
                    .collect(),
            ),
        ),
        (
            "histograms".to_string(),
            Content::Map(
                snap.hists
                    .iter()
                    .map(|(k, h)| (k.clone(), serde::Serialize::to_content(h)))
                    .collect(),
            ),
        ),
        (
            "quant_signals".to_string(),
            Content::Map(
                crate::quantsig::snapshot()
                    .iter()
                    .map(|(k, s)| (k.clone(), serde::Serialize::to_content(s)))
                    .collect(),
            ),
        ),
    ];
    for (name, value) in sections().lock().expect("report sections").iter() {
        top.push((name.clone(), value.clone()));
    }
    Content::Map(top)
}

/// Serializes [`build_report`] to a JSON string.
pub(crate) fn report_json() -> String {
    serde_json::to_string(&Json(build_report())).expect("report serialization is infallible")
}

fn parse_json(label: &str, s: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(s)
        .map(|j| j.0)
        .map_err(|e| format!("{label}: not well-formed JSON: {e}"))
}

fn required_keys(schema: &Content, field: &str) -> Vec<String> {
    match schema.get(field) {
        Some(Content::Seq(keys)) => keys
            .iter()
            .filter_map(|k| match k {
                Content::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn check_keys(label: &str, obj: &Content, keys: &[String]) -> Result<(), String> {
    if !matches!(obj, Content::Map(_)) {
        return Err(format!("{label}: expected a JSON object"));
    }
    for k in keys {
        if obj.get(k).is_none() {
            return Err(format!("{label}: missing required key `{k}`"));
        }
    }
    Ok(())
}

fn number_of(c: &Content) -> Option<f64> {
    match c {
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        Content::F64(v) => Some(*v),
        _ => None,
    }
}

/// Extracts an unsigned integer field, tolerating the JSON number forms.
pub(crate) fn content_u64(c: &Content) -> Option<u64> {
    match c {
        Content::U64(v) => Some(*v),
        Content::I64(v) => u64::try_from(*v).ok(),
        Content::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
        _ => None,
    }
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug)]
pub struct TraceCheck {
    /// Number of trace events in the file.
    pub events: usize,
}

/// Validates a Chrome trace JSON string against the checked-in schema:
/// well-formed JSON, required top-level and per-event keys, `ts`
/// non-decreasing in file order, `dur` non-negative.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let schema = parse_json("trace schema", CHROME_TRACE_SCHEMA)?;
    let trace = parse_json("trace", json)?;
    check_keys("trace", &trace, &required_keys(&schema, "required"))?;
    let events = match trace.get("traceEvents") {
        Some(Content::Seq(events)) => events,
        _ => return Err("trace: `traceEvents` is not an array".to_string()),
    };
    let event_keys = required_keys(&schema, "event_required");
    let mut last_ts = f64::NEG_INFINITY;
    for (i, ev) in events.iter().enumerate() {
        check_keys(&format!("trace event {i}"), ev, &event_keys)?;
        let ts = ev
            .get("ts")
            .and_then(number_of)
            .ok_or_else(|| format!("trace event {i}: `ts` is not a number"))?;
        let dur = ev
            .get("dur")
            .and_then(number_of)
            .ok_or_else(|| format!("trace event {i}: `dur` is not a number"))?;
        if ts < last_ts {
            return Err(format!(
                "trace event {i}: timestamps not monotonic ({ts} after {last_ts})"
            ));
        }
        if dur < 0.0 {
            return Err(format!("trace event {i}: negative duration {dur}"));
        }
        last_ts = ts;
    }
    Ok(TraceCheck {
        events: events.len(),
    })
}

/// Summary returned by [`validate_run_report`].
#[derive(Clone, Debug, Default)]
pub struct ReportCheck {
    /// `transport.payload_bytes`, when the transport section is present.
    pub transport_payload_bytes: Option<u64>,
    /// `transport.envelope_bytes`, when the transport section is present.
    pub transport_envelope_bytes: Option<u64>,
    /// `training.steps`, when the training section is present.
    pub training_steps: Option<u64>,
    /// `training.snip_updates` — SNIP probes the run executed.
    pub snip_updates: Option<u64>,
    /// `training.snip_overhead_frac` — Σ (probe + solve) time ÷ Σ
    /// training-step time.
    pub snip_overhead_frac: Option<f64>,
}

/// Validates a `RUN_REPORT.json` string against the checked-in schema:
/// well-formed JSON, required top-level keys, histogram field shape, and —
/// when a section listed in the schema's `section_required` is present —
/// that section's mandatory fields, plus the type of any of its
/// `section_optional` fields that appear.
pub fn validate_run_report(json: &str) -> Result<ReportCheck, String> {
    let schema = parse_json("report schema", RUN_REPORT_SCHEMA)?;
    let report = parse_json("report", json)?;
    check_keys("report", &report, &required_keys(&schema, "required"))?;
    let hist_keys = required_keys(&schema, "histogram_required");
    if let Some(Content::Map(hists)) = report.get("histograms") {
        for (name, h) in hists {
            check_keys(&format!("histogram `{name}`"), h, &hist_keys)?;
        }
    } else {
        return Err("report: `histograms` is not an object".to_string());
    }
    let Content::Map(entries) = &report else {
        return Err("report: expected a JSON object".to_string());
    };
    for (section, present) in entries {
        let label = format!("section `{section}`");
        if let Some(required) = schema
            .get("section_required")
            .filter(|sections| sections.get(section).is_some())
        {
            check_keys(&label, present, &required_keys(required, section))?;
        }
        if let Some(optional) = schema.get("section_optional") {
            for key in required_keys(optional, section) {
                let valid = |v: &Content| number_of(v).is_some_and(|v| v.is_finite() && v >= 0.0);
                if present.get(&key).is_some_and(|v| !valid(v)) {
                    return Err(format!("{label}: `{key}` is not a non-negative number"));
                }
            }
        }
    }
    let mut check = ReportCheck::default();
    if let Some(t) = report.get("transport") {
        check.transport_payload_bytes = t.get("payload_bytes").and_then(content_u64);
        check.transport_envelope_bytes = t.get("envelope_bytes").and_then(content_u64);
    }
    if let Some(t) = report.get("training") {
        check.training_steps = t.get("steps").and_then(content_u64);
        check.snip_updates = t.get("snip_updates").and_then(content_u64);
        check.snip_overhead_frac = t.get("snip_overhead_frac").and_then(number_of);
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_report_passes_its_own_schema() {
        crate::registry::counter_add("test.report.counter", 3);
        crate::registry::hist_record("test.report.hist", 42);
        let json = report_json();
        validate_run_report(&json).expect("self-built report validates");
        let tree = parse_json("report", &json).expect("parse back");
        let counter = tree
            .get("counters")
            .and_then(|c| c.get("test.report.counter"))
            .and_then(content_u64);
        assert_eq!(counter, Some(3));
    }

    #[test]
    fn emitted_trace_passes_its_own_schema() {
        let _serial = crate::test_state_lock(); // records: keep off `inert_span_records_nothing`
        crate::trace::record_event("test.report.span", 10, 5);
        let json = crate::trace::chrome_trace_json();
        let check = validate_chrome_trace(&json).expect("self-built trace validates");
        assert!(check.events >= 1);
    }

    #[test]
    fn validators_reject_malformed_artifacts() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace(r#"{"displayTimeUnit":"ms"}"#).is_err());
        assert!(validate_chrome_trace(
            r#"{"traceEvents":[{"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":5.0,"dur":1.0},
                {"name":"b","cat":"c","ph":"X","pid":1,"tid":1,"ts":4.0,"dur":1.0}],
                "displayTimeUnit":"ms"}"#
        )
        .is_err());
        assert!(validate_run_report("[]").is_err());
        assert!(validate_run_report(r#"{"schema":1}"#).is_err());
    }

    #[test]
    fn optional_training_keys_are_accepted_and_type_checked() {
        let report = |training: &str| {
            format!(
                r#"{{"schema":1,"generated_by":"snip-obs","trace_path":null,
                "counters":{{}},"gauges":{{}},"histograms":{{}},"quant_signals":{{}},
                "training":{{"steps":9,"world":1,"final_loss":2.5{training}}}}}"#
            )
        };
        let plain = validate_run_report(&report("")).expect("optional keys may be absent");
        assert_eq!((plain.snip_updates, plain.snip_overhead_frac), (None, None));
        let snip = validate_run_report(&report(r#","snip_updates":3,"snip_overhead_frac":0.125"#))
            .expect("optional keys validate");
        assert_eq!(snip.training_steps, Some(9));
        assert_eq!(snip.snip_updates, Some(3));
        assert_eq!(snip.snip_overhead_frac, Some(0.125));
        assert!(validate_run_report(&report(r#","snip_overhead_frac":"lots""#)).is_err());
        assert!(validate_run_report(&report(r#","snip_updates":-1"#)).is_err());
    }

    #[test]
    fn sections_with_missing_fields_fail_validation() {
        // A transport section missing `payload_bytes` must be rejected.
        let bad = r#"{"schema":1,"generated_by":"snip-obs","trace_path":null,
            "counters":{},"gauges":{},"histograms":{},"quant_signals":{},
            "transport":{"world":2}}"#;
        assert!(validate_run_report(bad).is_err());
    }
}
