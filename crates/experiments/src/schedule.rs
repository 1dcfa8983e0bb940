//! Event-driven 1F1B pipeline-schedule simulation.
//!
//! Pipeline parallelism bottlenecks on its slowest stage (paper §5.3); this
//! simulator turns per-stage costs plus a microbatch count into a concrete
//! schedule so bubble time and stage imbalance can be *measured* rather than
//! assumed.

use crate::cost::StageCost;

/// Forward or backward execution of one microbatch on one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Phase {
    /// Forward pass.
    Forward,
    /// Backward pass.
    Backward,
}

/// One scheduled work item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ScheduleEvent {
    /// Pipeline stage.
    pub(crate) stage: usize,
    /// Microbatch index.
    pub(crate) microbatch: usize,
    /// Forward or backward.
    pub(crate) phase: Phase,
    /// Start time.
    pub(crate) start: f64,
    /// End time.
    pub(crate) end: f64,
}

/// A simulated pipeline execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineSim {
    /// All events, sorted by start time.
    pub(crate) events: Vec<ScheduleEvent>,
    /// Total wall-clock time.
    pub makespan: f64,
    /// Busy time per stage.
    pub(crate) stage_busy: Vec<f64>,
    /// Idle ("bubble") fraction across all stages.
    pub(crate) bubble_fraction: f64,
}

/// Simulates a 1F1B schedule: each stage runs at most one op at a time,
/// prefers backward work once available (draining activations), and limits
/// in-flight forwards to `n_stages − stage` (the 1F1B memory bound).
///
/// Event order is **total**: ties are broken by `(start, phase, stage,
/// microbatch)` both when picking the next op and in the returned `events`,
/// so equal-cost stages yield one deterministic schedule independent of
/// candidate scan order.
///
/// # Panics
///
/// Panics if `costs` is empty, `n_microbatches` is zero, or any stage cost
/// is not finite and non-negative.
pub fn simulate_1f1b(costs: &[StageCost], n_microbatches: usize) -> PipelineSim {
    assert!(!costs.is_empty(), "need at least one stage");
    assert!(n_microbatches > 0, "need at least one microbatch");
    for (i, c) in costs.iter().enumerate() {
        assert!(
            c.forward.is_finite() && c.forward >= 0.0,
            "stage {i} forward cost {} must be finite and non-negative",
            c.forward
        );
        assert!(
            c.backward.is_finite() && c.backward >= 0.0,
            "stage {i} backward cost {} must be finite and non-negative",
            c.backward
        );
    }
    let s = costs.len();
    let m = n_microbatches;
    let inf = f64::INFINITY;

    let mut fwd_done = vec![vec![inf; m]; s]; // completion times
    let mut bwd_done = vec![vec![inf; m]; s];
    let mut fwd_ran = vec![vec![false; m]; s];
    let mut bwd_ran = vec![vec![false; m]; s];
    let mut free_at = vec![0.0f64; s];
    let mut events = Vec::with_capacity(2 * s * m);

    let total_ops = 2 * s * m;
    let mut done_ops = 0;
    while done_ops < total_ops {
        // Find the globally earliest-start runnable op; prefer backward and
        // lower microbatch on ties (1F1B drain priority).
        let mut best: Option<(f64, usize, Phase, usize)> = None; // (start, stage, phase, mb)
        for stage in 0..s {
            // Candidate backward: lowest unran mb whose deps are met.
            for mb in 0..m {
                if bwd_ran[stage][mb] {
                    continue;
                }
                let dep = if stage == s - 1 {
                    fwd_done[stage][mb]
                } else {
                    bwd_done[stage + 1][mb].max(fwd_done[stage][mb])
                };
                if dep.is_finite() {
                    let start = dep.max(free_at[stage]);
                    let cand = (start, stage, Phase::Backward, mb);
                    if better(&best, &cand) {
                        best = Some(cand);
                    }
                }
                break; // backwards must run in microbatch order per stage
            }
            // Candidate forward: lowest unran mb with dep met + in-flight cap.
            let inflight = (0..m)
                .filter(|&mb| fwd_ran[stage][mb] && !bwd_ran[stage][mb])
                .count();
            if inflight < s - stage {
                for mb in 0..m {
                    if fwd_ran[stage][mb] {
                        continue;
                    }
                    let dep = if stage == 0 {
                        0.0
                    } else {
                        fwd_done[stage - 1][mb]
                    };
                    if dep.is_finite() {
                        let start = dep.max(free_at[stage]);
                        let cand = (start, stage, Phase::Forward, mb);
                        if better(&best, &cand) {
                            best = Some(cand);
                        }
                    }
                    break; // forwards run in microbatch order per stage
                }
            }
        }
        let (start, stage, phase, mb) = best.expect("schedule deadlock");
        let dur = match phase {
            Phase::Forward => costs[stage].forward,
            Phase::Backward => costs[stage].backward,
        };
        let end = start + dur;
        match phase {
            Phase::Forward => {
                fwd_ran[stage][mb] = true;
                fwd_done[stage][mb] = end;
            }
            Phase::Backward => {
                bwd_ran[stage][mb] = true;
                bwd_done[stage][mb] = end;
            }
        }
        free_at[stage] = end;
        events.push(ScheduleEvent {
            stage,
            microbatch: mb,
            phase,
            start,
            end,
        });
        done_ops += 1;
    }

    let makespan = events.iter().fold(0.0f64, |acc, e| acc.max(e.end));
    let mut stage_busy = vec![0.0f64; s];
    for e in &events {
        stage_busy[e.stage] += e.end - e.start;
    }
    let busy: f64 = stage_busy.iter().sum();
    // All-zero costs give a zero makespan; an empty schedule has no bubble.
    let bubble_fraction = if makespan == 0.0 {
        0.0
    } else {
        1.0 - busy / (makespan * s as f64)
    };
    events.sort_by(event_order);
    PipelineSim {
        events,
        makespan,
        stage_busy,
        bubble_fraction,
    }
}

/// Backward drains activations, so it sorts before forward on ties.
fn phase_rank(p: Phase) -> u8 {
    if p == Phase::Backward {
        0
    } else {
        1
    }
}

/// Total preference order: earlier start, then backward before forward,
/// then lower stage, then lower microbatch. Total so that equal-cost
/// stages cannot make the pick depend on candidate scan order.
fn better(current: &Option<(f64, usize, Phase, usize)>, cand: &(f64, usize, Phase, usize)) -> bool {
    match current {
        None => true,
        Some(cur) => {
            let key = |c: &(f64, usize, Phase, usize)| (c.0, phase_rank(c.2), c.1, c.3);
            key(cand) < key(cur)
        }
    }
}

/// The same total order over emitted events (costs are validated finite, so
/// `total_cmp` and `partial_cmp` agree; `total_cmp` keeps the comparator
/// honest by construction).
fn event_order(a: &ScheduleEvent, b: &ScheduleEvent) -> std::cmp::Ordering {
    a.start
        .total_cmp(&b.start)
        .then_with(|| phase_rank(a.phase).cmp(&phase_rank(b.phase)))
        .then_with(|| a.stage.cmp(&b.stage))
        .then_with(|| a.microbatch.cmp(&b.microbatch))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_costs(s: usize, f: f64, b: f64) -> Vec<StageCost> {
        vec![
            StageCost {
                forward: f,
                backward: b,
            };
            s
        ]
    }

    #[test]
    fn events_never_overlap_per_stage() {
        let sim = simulate_1f1b(&uniform_costs(4, 1.0, 2.0), 8);
        for stage in 0..4 {
            let mut evs: Vec<_> = sim.events.iter().filter(|e| e.stage == stage).collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in evs.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-9, "overlap on stage {stage}");
            }
        }
    }

    #[test]
    fn all_microbatches_complete_both_phases() {
        let sim = simulate_1f1b(&uniform_costs(3, 1.0, 2.0), 5);
        assert_eq!(sim.events.len(), 2 * 3 * 5);
        for stage in 0..3 {
            for mb in 0..5 {
                for phase in [Phase::Forward, Phase::Backward] {
                    assert!(
                        sim.events
                            .iter()
                            .any(|e| e.stage == stage && e.microbatch == mb && e.phase == phase),
                        "missing ({stage},{mb},{phase:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn dependencies_are_respected() {
        let sim = simulate_1f1b(&uniform_costs(4, 1.3, 2.1), 6);
        let find = |stage: usize, mb: usize, phase: Phase| {
            sim.events
                .iter()
                .find(|e| e.stage == stage && e.microbatch == mb && e.phase == phase)
                .unwrap()
        };
        for mb in 0..6 {
            for stage in 1..4 {
                assert!(
                    find(stage, mb, Phase::Forward).start
                        >= find(stage - 1, mb, Phase::Forward).end - 1e-9
                );
            }
            for stage in 0..3 {
                assert!(
                    find(stage, mb, Phase::Backward).start
                        >= find(stage + 1, mb, Phase::Backward).end - 1e-9
                );
            }
            assert!(find(3, mb, Phase::Backward).start >= find(3, mb, Phase::Forward).end - 1e-9);
        }
    }

    #[test]
    fn makespan_matches_1f1b_theory_for_uniform_stages() {
        // Uniform stages: makespan = (S−1)·(tf+tb) + M·(tf+tb).
        let (s, m, tf, tb) = (4usize, 16usize, 1.0f64, 2.0f64);
        let sim = simulate_1f1b(&uniform_costs(s, tf, tb), m);
        let theory = (s as f64 - 1.0) * (tf + tb) + m as f64 * (tf + tb);
        assert!(
            (sim.makespan - theory).abs() < 1e-6,
            "makespan {} vs theory {theory}",
            sim.makespan
        );
    }

    #[test]
    fn more_microbatches_shrink_bubble_fraction() {
        let costs = uniform_costs(4, 1.0, 2.0);
        let small = simulate_1f1b(&costs, 4);
        let large = simulate_1f1b(&costs, 32);
        assert!(large.bubble_fraction < small.bubble_fraction);
        assert!(large.bubble_fraction < 0.1);
    }

    #[test]
    fn zero_cost_schedule_is_finite_and_ordered() {
        // Regression: a zero makespan used to make bubble_fraction NaN, and
        // the all-equal start times exercised the f64-equality tie-break.
        let sim = simulate_1f1b(&uniform_costs(3, 0.0, 0.0), 4);
        assert_eq!(sim.makespan, 0.0);
        assert_eq!(sim.bubble_fraction, 0.0);
        assert_eq!(sim.events.len(), 2 * 3 * 4);
        assert!(sim.events.iter().all(|e| e.start == 0.0 && e.end == 0.0));
        // Events come out in the documented total order.
        let mut sorted = sim.events.clone();
        sorted.sort_by(event_order);
        assert_eq!(sim.events, sorted);
    }

    #[test]
    fn equal_cost_event_order_is_deterministic_and_total() {
        let sim = simulate_1f1b(&uniform_costs(4, 1.0, 1.0), 6);
        let again = simulate_1f1b(&uniform_costs(4, 1.0, 1.0), 6);
        assert_eq!(sim, again);
        for w in sim.events.windows(2) {
            assert_ne!(
                event_order(&w[0], &w[1]),
                std::cmp::Ordering::Greater,
                "events out of total order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_cost_is_rejected_up_front() {
        let mut costs = uniform_costs(2, 1.0, 2.0);
        costs[1].backward = f64::NAN;
        let _ = simulate_1f1b(&costs, 2);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_cost_is_rejected_up_front() {
        let mut costs = uniform_costs(2, 1.0, 2.0);
        costs[0].forward = -0.5;
        let _ = simulate_1f1b(&costs, 2);
    }

    #[test]
    fn slow_stage_dominates_makespan() {
        let mut costs = uniform_costs(4, 1.0, 2.0);
        costs[2] = StageCost {
            forward: 3.0,
            backward: 6.0,
        };
        let m = 16;
        let sim = simulate_1f1b(&costs, m);
        // The slow stage is busy ~M·(tf+tb) = 144; makespan at least that.
        assert!(sim.makespan >= 16.0 * 9.0 - 1e-9);
        // And the slow stage has almost no idle time in steady state.
        let busy = sim.stage_busy[2];
        assert!(
            busy / sim.makespan > 0.85,
            "slow stage busy {busy} of {}",
            sim.makespan
        );
    }
}
