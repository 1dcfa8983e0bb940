//! Untyped JSON over the vendored `serde` content tree: the result line, the
//! result files, the Chrome trace and `BENCHMARK.json` are all read and
//! written through this.

use serde::{Content, Deserialize, Serialize};

/// A JSON document as a content tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(c: &Content) -> Result<Self, serde::Error> {
        Ok(Json(c.clone()))
    }
}

pub fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Json>(text)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

pub fn read_file(path: &str) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn compact(c: &Content) -> String {
    serde_json::to_string(&Json(c.clone())).expect("content trees always render")
}

/// Wide enough for one metric of a result file or one trace event.
pub const LINE_WIDTH: usize = 240;

/// Indented, except that whatever fits in `width` columns stays on one
/// line: one metric per line in a result file, so two baselines diff line
/// by line.
pub fn pretty(c: &Content, width: usize) -> String {
    let mut out = String::new();
    write_pretty(c, width, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(c: &Content, width: usize, level: usize, out: &mut String) {
    let one_line = compact(c);
    if one_line.len() <= width {
        out.push_str(&one_line);
        return;
    }
    let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
    match c {
        Content::Map(entries) => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                pad(out, level + 1);
                out.push_str(&compact(&Content::Str(k.clone())));
                out.push_str(": ");
                write_pretty(v, width, level + 1, out);
                out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
            }
            pad(out, level);
            out.push('}');
        }
        Content::Seq(items) => {
            out.push_str("[\n");
            for (i, v) in items.iter().enumerate() {
                pad(out, level + 1);
                write_pretty(v, width, level + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, level);
            out.push(']');
        }
        _ => out.push_str(&one_line),
    }
}

pub fn map(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn str(s: &str) -> Content {
    Content::Str(s.to_string())
}

pub fn as_num(c: &Content) -> Option<f64> {
    match c {
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        Content::F64(v) => Some(*v),
        _ => None,
    }
}

pub fn str_field(c: &Content, key: &str) -> Option<String> {
    match c.get(key) {
        Some(Content::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

pub fn num_field(c: &Content, key: &str) -> Option<f64> {
    c.get(key).and_then(as_num)
}

pub fn entries(c: &Content) -> &[(String, Content)] {
    match c {
        Content::Map(e) => e,
        _ => &[],
    }
}

/// Inserts or replaces `key` in a map, keeping insertion order.
pub fn set(c: &mut Content, key: &str, value: Content) {
    if !matches!(c, Content::Map(_)) {
        *c = Content::Map(Vec::new());
    }
    let Content::Map(entries) = c else {
        unreachable!("just made a map")
    };
    match entries.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => entries.push((key.to_string(), value)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_parses_back_to_the_same_tree() {
        let doc = map(vec![
            ("label", str("a")),
            (
                "workloads",
                map(vec![(
                    "w",
                    map(vec![(
                        "m",
                        map(vec![("value", Content::F64(1.5)), ("unit", str("ms"))]),
                    )]),
                )]),
            ),
            ("empty", Content::Map(vec![])),
            ("claim", Content::Null),
        ]);
        let text = pretty(&doc, 30);
        assert_eq!(parse(&text).unwrap(), doc);
        assert!(
            text.contains("\"m\": {\"value\":1.5,\"unit\":\"ms\"}"),
            "{text}"
        );
        assert!(text.trim_end().ends_with("\"claim\": null\n}"), "{text}");
    }

    #[test]
    fn set_replaces_in_place_and_appends_new_keys() {
        let mut doc = map(vec![("a", Content::U64(1)), ("b", Content::U64(2))]);
        set(&mut doc, "a", Content::U64(9));
        set(&mut doc, "c", Content::U64(3));
        let keys: Vec<&str> = entries(&doc).iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(num_field(&doc, "a"), Some(9.0));
    }
}
