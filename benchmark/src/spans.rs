//! The benchmark's own span recorder. Spans are taken from outside, around
//! the calls into each layer; they stay in memory and are written once, as
//! Chrome trace-event JSON, when the run ends. Spans inside the program are
//! `snip-obs`'s business and a later change.

use crate::json;
use serde::Content;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one training step share this id.
    pub step: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through the
    /// recorder it is handed become this span's children.
    pub fn scope<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            step,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn duration_ms(&self, index: usize) -> f64 {
        let s = &self.spans[index];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Time covered by the direct children of span `index`.
    pub fn children_ms(&self, index: usize) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent == Some(index))
            .map(|i| self.duration_ms(i))
            .sum()
    }

    /// A layer's self time: its span minus the part its children cover.
    pub fn self_ms(&self, index: usize) -> f64 {
        self.duration_ms(index) - self.children_ms(index)
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, microseconds);
    /// loads in Perfetto and `chrome://tracing`.
    pub fn chrome_trace(&self) -> Content {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = match s.parent {
                    Some(p) => Content::U64(p as u64),
                    None => Content::Null,
                };
                json::map(vec![
                    ("name", json::str(s.name)),
                    ("ph", json::str("X")),
                    ("ts", Content::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Content::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Content::U64(1)),
                    ("tid", Content::U64(1)),
                    (
                        "args",
                        json::map(vec![
                            ("id", Content::U64(id as u64)),
                            ("parent", parent),
                            ("step", Content::U64(s.step)),
                            ("self_ms", Content::F64(self.self_ms(id))),
                        ]),
                    ),
                ])
            })
            .collect();
        json::map(vec![
            ("traceEvents", Content::Seq(events)),
            ("displayTimeUnit", json::str("ms")),
        ])
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, json::pretty(&self.chrome_trace(), json::LINE_WIDTH))
    }
}

/// Checks a written trace: every event has a name, a start and an end;
/// children lie inside their parents and carry their parent's step id; no
/// two root spans share a step id. Returns the number of spans.
pub fn validate_trace(trace: &Content) -> Result<usize, String> {
    let Some(Content::Seq(events)) = trace.get("traceEvents") else {
        return Err("no traceEvents array".into());
    };
    struct Ev {
        start: f64,
        end: f64,
        parent: Option<usize>,
        step: u64,
    }
    let mut evs = Vec::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        let name = json::str_field(e, "name").ok_or(format!("event {i}: no name"))?;
        if name.is_empty() {
            return Err(format!("event {i}: empty name"));
        }
        let start = json::num_field(e, "ts").ok_or(format!("event {i} ({name}): no ts"))?;
        let dur = json::num_field(e, "dur").ok_or(format!("event {i} ({name}): no dur"))?;
        if !(start >= 0.0 && dur >= 0.0) {
            return Err(format!("event {i} ({name}): negative or non-finite time"));
        }
        let args = e
            .get("args")
            .ok_or(format!("event {i} ({name}): no args"))?;
        if json::num_field(args, "id") != Some(i as f64) {
            return Err(format!("event {i} ({name}): id out of order"));
        }
        let parent = match args.get("parent") {
            Some(Content::Null) => None,
            Some(p) => Some(json::as_num(p).ok_or(format!("event {i}: bad parent"))? as usize),
            None => return Err(format!("event {i} ({name}): no parent field")),
        };
        let step = json::num_field(args, "step").ok_or(format!("event {i}: no step id"))? as u64;
        evs.push(Ev {
            start,
            end: start + dur,
            parent,
            step,
        });
    }
    let mut root_steps = std::collections::BTreeSet::new();
    for (i, e) in evs.iter().enumerate() {
        match e.parent {
            None => {
                if !root_steps.insert(e.step) {
                    return Err(format!("step id {} names two root spans", e.step));
                }
            }
            Some(p) => {
                // A parent is opened before its children.
                let parent = evs
                    .get(p)
                    .filter(|_| p < i)
                    .ok_or(format!("event {i}: parent {p} is not an earlier span"))?;
                // Times are microseconds printed from integer nanoseconds.
                let slack = 1e-3;
                if e.start + slack < parent.start || e.end > parent.end + slack {
                    return Err(format!("event {i} is not nested inside its parent {p}"));
                }
                if e.step != parent.step {
                    return Err(format!(
                        "event {i} and its parent {p} disagree on the step id"
                    ));
                }
            }
        }
    }
    Ok(evs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0);
        }
    }

    fn two_steps() -> Recorder {
        let mut rec = Recorder::new();
        for step in 0..2 {
            rec.scope("step", step, |rec| {
                rec.scope("model.step", step, |_| spin(300));
                rec.scope("adamw.update", step, |rec| {
                    rec.scope("inner", step, |_| spin(100));
                    spin(100);
                });
                spin(50);
            });
        }
        rec
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let rec = two_steps();
        assert_eq!(rec.spans().len(), 8);
        let step0 = 0;
        assert_eq!(rec.spans()[1].parent, Some(step0));
        assert_eq!(
            rec.spans()[3].parent,
            Some(2),
            "grandchild hangs off adamw.update"
        );
        let whole = rec.duration_ms(step0);
        let parts = rec.children_ms(step0);
        assert!(parts <= whole && parts > 0.45, "{parts} of {whole}");
        assert!((rec.self_ms(step0) - (whole - parts)).abs() < 1e-9);
        // The grandchild counts toward adamw.update, not toward the step.
        assert!(rec.self_ms(2) >= 0.09 && rec.self_ms(2) < rec.duration_ms(2));
    }

    #[test]
    fn written_trace_reparses_and_validates() {
        let rec = two_steps();
        let dir = std::env::temp_dir().join(format!("bench_train_spans_{}", std::process::id()));
        let path = dir.join("trace-test.json");
        rec.write(&path).unwrap();
        let back = json::read_file(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(validate_trace(&back), Ok(8));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        let good = two_steps().chrome_trace();
        let Some(Content::Seq(events)) = good.get("traceEvents") else {
            panic!("no events")
        };
        let rebuild = |f: &dyn Fn(usize, &mut Content)| {
            let mut evs = events.clone();
            for (i, e) in evs.iter_mut().enumerate() {
                f(i, e);
            }
            json::map(vec![("traceEvents", Content::Seq(evs))])
        };
        let args_set = |e: &mut Content, key: &str, v: Content| {
            let mut args = e.get("args").unwrap().clone();
            json::set(&mut args, key, v);
            json::set(e, "args", args);
        };

        let no_name = rebuild(&|i, e| {
            if i == 1 {
                json::set(e, "name", Content::Null);
            }
        });
        assert!(validate_trace(&no_name).unwrap_err().contains("no name"));

        let escapes = rebuild(&|i, e| {
            if i == 1 {
                json::set(e, "dur", Content::F64(1e9));
            }
        });
        assert!(validate_trace(&escapes).unwrap_err().contains("not nested"));

        let wrong_step = rebuild(&|i, e| {
            if i == 1 {
                args_set(e, "step", Content::U64(7));
            }
        });
        assert!(validate_trace(&wrong_step).unwrap_err().contains("step id"));

        let shared_id = rebuild(&|_, e| args_set(e, "step", Content::U64(0)));
        assert!(validate_trace(&shared_id)
            .unwrap_err()
            .contains("two root spans"));

        assert!(validate_trace(&json::map(vec![])).is_err());
    }
}
