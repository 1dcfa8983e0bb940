//! ASCII rendering of pipeline schedules (paper Fig. 12).

use crate::schedule::{Phase, PipelineSim};

/// Renders the schedule as one row per stage, time flowing right. Each cell
/// is `F<mb>` or `B<mb>`; width is proportional to duration.
///
/// `width` is the total character budget for the time axis.
pub fn render_timeline(sim: &PipelineSim, width: usize) -> String {
    let n_stages = sim.stage_busy.len();
    let scale = width as f64 / sim.makespan.max(1e-12);
    let mut out = String::new();
    for stage in 0..n_stages {
        let mut row = vec![' '; width + 8];
        for e in sim.events.iter().filter(|e| e.stage == stage) {
            let s = (e.start * scale).round() as usize;
            let t = ((e.end * scale).round() as usize).min(width);
            if t <= s {
                continue;
            }
            let tag = match e.phase {
                Phase::Forward => format!("F{}", e.microbatch),
                Phase::Backward => format!("B{}", e.microbatch),
            };
            let cell_width = t - s;
            for (i, slot) in row[s..t].iter_mut().enumerate() {
                *slot = if i < tag.len() && cell_width >= tag.len() {
                    tag.as_bytes()[i] as char
                } else if i == 0 {
                    match e.phase {
                        Phase::Forward => 'f',
                        Phase::Backward => 'b',
                    }
                } else {
                    match e.phase {
                        Phase::Forward => '-',
                        Phase::Backward => '=',
                    }
                };
            }
        }
        let row_str: String = row.into_iter().collect();
        out.push_str(&format!("stage {stage} |{}\n", row_str.trim_end()));
    }
    out.push_str(&format!(
        "makespan = {:.1}, bubble fraction = {:.1}%\n",
        sim.makespan,
        sim.bubble_fraction * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StageCost;
    use crate::schedule::simulate_1f1b;

    #[test]
    fn timeline_contains_all_stages_and_summary() {
        let costs = vec![
            StageCost {
                forward: 1.0,
                backward: 2.0,
            };
            3
        ];
        let sim = simulate_1f1b(&costs, 4);
        let text = render_timeline(&sim, 80);
        assert!(text.contains("stage 0"));
        assert!(text.contains("stage 2"));
        assert!(text.contains("bubble fraction"));
        // Forward and backward work both visible.
        assert!(text.contains('F') || text.contains('f'));
        assert!(text.contains('B') || text.contains('b'));
    }

    #[test]
    fn rows_match_stage_count() {
        let costs = vec![
            StageCost {
                forward: 1.0,
                backward: 2.0,
            };
            5
        ];
        let sim = simulate_1f1b(&costs, 3);
        let text = render_timeline(&sim, 60);
        assert_eq!(text.lines().count(), 6); // 5 stages + summary
    }
}
