//! `bench_train --compare a.json b.json`: every metric of two result files
//! of one seed side by side, each ratio with its base, and for end-to-end
//! metrics a verdict against the same-seed bound the benchmark fixed.

use crate::json;
use crate::metrics::{self, Better};
use serde::Content;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regress,
    /// Worse by more than the bound, but by less than the spread of the
    /// samples inside a single run: two runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `base` → `new` judged against `bound`; `spread` is the larger in-run
/// relative spread of the two runs.
pub fn verdict(better: Better, bound: f64, base: f64, new: f64, spread: f64) -> Verdict {
    if new.to_bits() == base.to_bits() {
        return Verdict::Pass;
    }
    if base == 0.0 {
        return Verdict::Unresolved;
    }
    let change = (new - base) / base.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening <= bound {
        Verdict::Pass
    } else if worsening <= spread {
        Verdict::Unresolved
    } else {
        Verdict::Regress
    }
}

fn metric(entry: &Content, workload: &str, name: &str) -> Option<(f64, f64)> {
    let m = entry.get(workload)?.get("metrics")?.get(name)?;
    Some((
        json::num_field(m, "value")?,
        json::num_field(m, "spread").unwrap_or(0.0),
    ))
}

/// Prints the comparison; returns the process exit code (1 on a regression
/// or a failed operation, 2 on unreadable input).
pub fn run(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (json::read_file(a_path), json::read_file(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("bench_train --compare: {e}");
            }
            return 2;
        }
    };
    let label = |c: &Content| json::str_field(c, "label").unwrap_or_else(|| "?".into());
    println!(
        "base {} ({a_path})  vs  new {} ({b_path})",
        label(&a),
        label(&b)
    );
    if a.get("machine") != b.get("machine") {
        println!("note: the two files record different machine sections");
    }
    if a.get("seed") != b.get("seed") {
        println!("note: the two files record different seeds; the bounds below hold between runs of one seed");
    }
    let empty = Content::Map(Vec::new());
    let mut bad = 0;

    println!("\nend-to-end: workload metric base -> new unit  new/base  bound  verdict");
    let (ea, eb) = (
        a.get("end_to_end").unwrap_or(&empty),
        b.get("end_to_end").unwrap_or(&empty),
    );
    for (workload, _) in metrics::WORKLOADS {
        for side in [ea, eb] {
            let failed = side
                .get(workload)
                .and_then(|w| json::num_field(w, "failed"));
            if failed != Some(0.0) {
                println!("{workload} failed_ops {failed:?}  REGRESS");
                bad += 1;
            }
        }
        for m in metrics::END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
        {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(ea, workload, m.name), metric(eb, workload, m.name))
            else {
                println!("{workload} {} missing on one side  REGRESS", m.name);
                bad += 1;
                continue;
            };
            let bound = m.bound_on(workload);
            let v = verdict(m.better, bound, va, vb, sa.max(sb));
            bad += (v == Verdict::Regress) as i32;
            let same = if va.to_bits() == vb.to_bits() {
                " identical"
            } else {
                ""
            };
            println!(
                "{workload} {} {va} -> {vb} {}  {:.4}x of {va}  bound {:.1}% ({} is better)  {}{same}",
                m.name,
                m.unit,
                vb / va,
                bound * 100.0,
                m.better.as_str(),
                v.as_str(),
            );
        }
    }

    println!("\nper-layer (no bound): metric base -> new unit  new/base");
    let (ta, tb) = (
        a.get("traced").unwrap_or(&empty),
        b.get("traced").unwrap_or(&empty),
    );
    let name = metrics::PARTS_OVER_WHOLE;
    let unit = metrics::unit_of(name).expect("declared per-layer metric");
    for (workload, _) in metrics::WORKLOADS {
        if let (Some((va, _)), Some((vb, _))) =
            (metric(ta, workload, name), metric(tb, workload, name))
        {
            println!(
                "{workload} {name} {va} -> {vb} {unit}  {:.4}x of {va}",
                vb / va
            );
        }
    }
    // The layer suite does not depend on the workload: one value per file,
    // the median over its traced runs.
    let layer =
        |file: &Content, name: &str| json::num_field(file.get("per_layer")?.get(name)?, "value");
    for (name, unit, _) in metrics::PER_LAYER {
        // (The harness's own ratio is per workload and has no entry here.)
        if let (Some(va), Some(vb)) = (layer(&a, name), layer(&b, name)) {
            println!("{name} {va} -> {vb} {unit}  {:.4}x of {va}", vb / va);
        }
    }
    println!(
        "\n{}",
        if bad == 0 {
            "no regression"
        } else {
            "REGRESSION"
        }
    );
    (bad > 0) as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // 5 % slower against a 7 % bound.
        assert_eq!(verdict(Lower, 0.07, 100.0, 105.0, 0.0), Verdict::Pass);
        // 10 % slower, quiet run: a regression.
        assert_eq!(verdict(Lower, 0.07, 100.0, 110.0, 0.02), Verdict::Regress);
        // 10 % slower, but single-run samples spread 15 %: cannot tell.
        assert_eq!(
            verdict(Lower, 0.07, 100.0, 110.0, 0.15),
            Verdict::Unresolved
        );
        // Improvements always pass, whichever way is better.
        assert_eq!(verdict(Lower, 0.07, 100.0, 50.0, 0.0), Verdict::Pass);
        assert_eq!(verdict(Higher, 0.07, 100.0, 150.0, 0.0), Verdict::Pass);
        assert_eq!(verdict(Higher, 0.07, 100.0, 90.0, 0.0), Verdict::Regress);
        // A bound of 0 is an exact count: any growth regresses.
        assert_eq!(
            verdict(Lower, 0.0, 15_880_176.0, 15_880_176.0, 0.0),
            Verdict::Pass
        );
        assert_eq!(
            verdict(Lower, 0.0, 15_880_176.0, 15_880_177.0, 0.0),
            Verdict::Regress
        );
    }

    #[test]
    fn metric_lookup_reads_value_and_spread() {
        let doc = json::parse(
            r#"{"train-fp4":{"metrics":{"step_ms_p50":{"value":490.5,"unit":"ms","spread":0.02}}}}"#,
        )
        .unwrap();
        assert_eq!(
            metric(&doc, "train-fp4", "step_ms_p50"),
            Some((490.5, 0.02))
        );
        assert_eq!(metric(&doc, "train-fp4", "nope"), None);
        assert_eq!(metric(&doc, "train-bf16", "step_ms_p50"), None);
    }
}
