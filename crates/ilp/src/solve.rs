//! Exact branch-and-bound solver for the multiple-choice knapsack ILP.
//!
//! The paper solves its ILP with `scipy.optimize.milp` (HiGHS) under a 30 s
//! time limit, noting it "usually takes a few seconds" (§6.1). This solver is
//! specialized to the one problem shape SNIP produces — multiple-choice
//! knapsack — and is exact:
//!
//! 1. **Dominance pruning**: within each group, an option is dropped if
//!    another option has at least its efficiency at no more quality loss
//!    (some optimal solution always avoids dominated options).
//! 2. **LP relaxation bound**: the classic MCKP relaxation — start every
//!    group at its cheapest option and buy efficiency increments along each
//!    group's lower convex hull in order of marginal rate `Δq/Δe` — gives a
//!    lower bound with at most one fractional group.
//! 3. **Branch & bound**: branch on the fractional group; rounding the
//!    fractional increment up gives feasible incumbents for free.
//! 4. **Exchange rule**: groups whose frontier is the same two efficiency
//!    levels (bit for bit) are interchangeable in the constraint, so some
//!    optimum upgrades them in order of `Δq` — swap any other pair: same
//!    efficiency, no more loss. Branching one of them therefore fixes a
//!    whole prefix or suffix of its class. This is what keeps the search
//!    polynomial on the instances SNIP itself produces: a model's layers
//!    carry only a handful of distinct FLOP shares (2 for the 154
//!    two-option layers of `tinyllama-1b-sim`), and plain branch-and-bound
//!    is exponential in that symmetry.

use crate::problem::{Choice, McKnapsack};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Solver options.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Wall-clock budget; on expiry the best incumbent is returned with
    /// `proven_optimal = false`. Matches the paper's 30 s limit by default.
    pub time_limit: Duration,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: Duration::from_secs(30),
        }
    }
}

/// A solved assignment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Picked option index per group (original indices of the instance).
    pub picks: Vec<usize>,
    /// Total quality loss of the assignment.
    pub objective: f64,
    /// Total efficiency of the assignment.
    pub efficiency: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Whether optimality was proven before the time limit.
    pub proven_optimal: bool,
}

/// Solver failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Malformed instance (empty group, non-finite values, …).
    Invalid(String),
    /// No assignment can reach the efficiency target.
    Infeasible,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Invalid(msg) => write!(f, "invalid instance: {msg}"),
            SolveError::Infeasible => write!(f, "efficiency target unreachable"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A frontier point: original option index plus its values.
#[derive(Clone, Copy, Debug)]
struct Point {
    orig: usize,
    e: f64,
    q: f64,
}

/// Per-group preprocessed data.
#[derive(Clone, Debug)]
struct Group {
    /// Non-dominated options, efficiency ascending (quality ascending too).
    frontier: Vec<Point>,
    /// Indices into `frontier` forming the lower convex hull.
    hull: Vec<usize>,
}

fn preprocess(options: &[Choice]) -> Group {
    // Sort by efficiency ascending, quality ascending to break ties.
    let mut idx: Vec<usize> = (0..options.len()).collect();
    // Sort by efficiency ascending; ties broken by quality *descending* so
    // that the reverse sweep visits the better (lower-q) duplicate last and
    // keeps exactly one point per efficiency level.
    idx.sort_by(|&a, &b| {
        options[a]
            .efficiency
            .partial_cmp(&options[b].efficiency)
            .unwrap()
            .then(options[b].quality.partial_cmp(&options[a].quality).unwrap())
    });
    // Sweep from highest efficiency down, keeping strictly-better quality.
    let mut frontier_rev: Vec<Point> = Vec::new();
    let mut best_q = f64::INFINITY;
    for &i in idx.iter().rev() {
        let (e, q) = (options[i].efficiency, options[i].quality);
        if q < best_q {
            frontier_rev.push(Point { orig: i, e, q });
            best_q = q;
        }
    }
    frontier_rev.reverse();
    let frontier = frontier_rev;

    // Lower convex hull over (e, q): marginal rates must be non-decreasing.
    let mut hull: Vec<usize> = Vec::with_capacity(frontier.len());
    for i in 0..frontier.len() {
        while hull.len() >= 2 {
            let a = frontier[hull[hull.len() - 2]];
            let b = frontier[hull[hull.len() - 1]];
            let c = frontier[i];
            // Keep b only if rate(a→b) ≤ rate(a→c) (cross-product form).
            let keep = (b.q - a.q) * (c.e - a.e) <= (c.q - a.q) * (b.e - a.e);
            if keep {
                break;
            }
            hull.pop();
        }
        hull.push(i);
    }
    Group { frontier, hull }
}

/// One efficiency-buying increment on a group's hull.
#[derive(Clone, Copy, Debug)]
struct Increment {
    group: usize,
    /// Hull position reached by taking this increment.
    hull_pos: usize,
    de: f64,
    dq: f64,
}

struct Searcher<'a> {
    groups: &'a [Group],
    classes: Classes,
    target: f64,
    deadline: Instant,
    nodes: u64,
    timed_out: bool,
    /// Best incumbent: (objective, picks as frontier indices).
    best: Option<(f64, Vec<usize>)>,
}

/// Result of the LP relaxation at a node.
enum LpOutcome {
    /// Relaxation infeasible → prune.
    Infeasible,
    /// Bound plus the fractional group (if any) and the integral rounding
    /// (frontier index per group).
    Bound {
        bound: f64,
        fractional_group: Option<usize>,
        rounded: Vec<usize>,
        rounded_feasible: bool,
    },
}

impl<'a> Searcher<'a> {
    /// LP relaxation with some groups fixed (`fixed[i] = Some(frontier idx)`).
    fn lp(&self, fixed: &[Option<usize>]) -> LpOutcome {
        let mut base_q = 0.0;
        let mut base_e = 0.0;
        let mut rounded: Vec<usize> = vec![0; self.groups.len()];
        let mut increments: Vec<Increment> = Vec::new();
        for (i, g) in self.groups.iter().enumerate() {
            if let Some(f) = fixed[i] {
                base_q += g.frontier[f].q;
                base_e += g.frontier[f].e;
                rounded[i] = f;
            } else {
                // Base = cheapest-quality point = first frontier point.
                base_q += g.frontier[0].q;
                base_e += g.frontier[0].e;
                rounded[i] = 0;
                for w in g.hull.windows(2) {
                    let a = g.frontier[w[0]];
                    let b = g.frontier[w[1]];
                    increments.push(Increment {
                        group: i,
                        hull_pos: w[1],
                        de: b.e - a.e,
                        dq: b.q - a.q,
                    });
                }
            }
        }
        let mut needed = self.target - base_e;
        if needed <= 1e-12 {
            return LpOutcome::Bound {
                bound: base_q,
                fractional_group: None,
                rounded,
                rounded_feasible: true,
            };
        }
        increments.sort_by(|x, y| {
            let rx = x.dq / x.de.max(1e-300);
            let ry = y.dq / y.de.max(1e-300);
            rx.partial_cmp(&ry).unwrap()
        });
        let mut bound = base_q;
        for inc in &increments {
            if inc.de <= 0.0 {
                continue;
            }
            if inc.de >= needed {
                // Fractional take.
                bound += inc.dq * (needed / inc.de);
                rounded[inc.group] = inc.hull_pos; // round up → feasible
                return LpOutcome::Bound {
                    bound,
                    fractional_group: Some(inc.group),
                    rounded,
                    rounded_feasible: true,
                };
            }
            bound += inc.dq;
            needed -= inc.de;
            rounded[inc.group] = inc.hull_pos;
        }
        if needed <= 1e-12 {
            return LpOutcome::Bound {
                bound,
                fractional_group: None,
                rounded,
                rounded_feasible: true,
            };
        }
        LpOutcome::Infeasible
    }

    fn objective_of(&self, picks: &[usize]) -> (f64, f64) {
        let mut q = 0.0;
        let mut e = 0.0;
        for (g, &p) in self.groups.iter().zip(picks) {
            q += g.frontier[p].q;
            e += g.frontier[p].e;
        }
        (q, e)
    }

    fn offer(&mut self, picks: &[usize]) {
        let (q, e) = self.objective_of(picks);
        if e + 1e-12 < self.target {
            return;
        }
        match &self.best {
            Some((bq, _)) if *bq <= q => {}
            _ => self.best = Some((q, picks.to_vec())),
        }
    }

    /// The exchange rule: with group `g` fixed to `opt`, fixes every free
    /// member of its class on the same side of `g` in upgrade order —
    /// cheaper members up when `g` goes up (`opt == 1`), dearer members
    /// down when it stays down — recording them in `implied` for the
    /// caller to undo. Returns `false` if a member is already fixed the
    /// other way: that subtree holds no prefix solution, and some optimum
    /// is one.
    fn fix_class_side(
        &self,
        g: usize,
        opt: usize,
        fixed: &mut [Option<usize>],
        implied: &mut Vec<usize>,
    ) -> bool {
        let Some((class, rank)) = self.classes.of[g] else {
            return true;
        };
        let members = &self.classes.members[class];
        let side = if opt == 1 {
            &members[..rank]
        } else {
            &members[rank + 1..]
        };
        for &m in side {
            match fixed[m] {
                None => {
                    fixed[m] = Some(opt);
                    implied.push(m);
                }
                Some(other) if other != opt => return false,
                Some(_) => {}
            }
        }
        true
    }

    fn search(&mut self, fixed: &mut Vec<Option<usize>>) {
        self.nodes += 1;
        if self.nodes.is_multiple_of(64) && Instant::now() > self.deadline {
            self.timed_out = true;
        }
        if self.timed_out {
            return;
        }
        match self.lp(fixed) {
            LpOutcome::Infeasible => {}
            LpOutcome::Bound {
                bound,
                fractional_group,
                rounded,
                rounded_feasible,
            } => {
                if let Some((bq, _)) = &self.best {
                    if bound >= *bq - 1e-12 {
                        return; // prune: cannot beat incumbent
                    }
                }
                if rounded_feasible {
                    self.offer(&rounded);
                }
                let Some(gf) = fractional_group else {
                    // LP integral → `rounded` is optimal for this subtree.
                    return;
                };
                // Branch over every frontier option of the fractional group.
                let n_opts = self.groups[gf].frontier.len();
                for opt in 0..n_opts {
                    fixed[gf] = Some(opt);
                    let mut implied = Vec::new();
                    if self.fix_class_side(gf, opt, fixed, &mut implied) {
                        self.search(fixed);
                    }
                    for g in implied {
                        fixed[g] = None;
                    }
                    if self.timed_out {
                        break;
                    }
                }
                fixed[gf] = None;
            }
        }
    }
}

/// Exchange classes: the two-point groups, grouped by their (bit-exact)
/// efficiency levels.
struct Classes {
    /// Each class in upgrade order: `Δq` ascending, ties by index.
    members: Vec<Vec<usize>>,
    /// `(class, rank within it)` of every group that belongs to one.
    of: Vec<Option<(usize, usize)>>,
}

impl Classes {
    fn new(groups: &[Group]) -> Self {
        let mut by_levels: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        for (i, g) in groups.iter().enumerate() {
            if let [lo, hi] = g.frontier[..] {
                by_levels
                    .entry((lo.e.to_bits(), hi.e.to_bits()))
                    .or_default()
                    .push(i);
            }
        }
        let mut of = vec![None; groups.len()];
        let members = by_levels
            .into_values()
            .enumerate()
            .map(|(class, mut members)| {
                let dq = |i: usize| groups[i].frontier[1].q - groups[i].frontier[0].q;
                // Stable, and `members` starts in index order: ties by index.
                members.sort_by(|&a, &b| dq(a).partial_cmp(&dq(b)).expect("finite instance"));
                for (rank, &m) in members.iter().enumerate() {
                    of[m] = Some((class, rank));
                }
                members
            })
            .collect();
        Classes { members, of }
    }
}

/// Solves the instance exactly (up to the time limit).
///
/// # Errors
///
/// [`SolveError::Invalid`] for malformed instances, [`SolveError::Infeasible`]
/// when no assignment reaches the target.
///
/// # Example
///
/// ```
/// use snip_ilp::{Choice, McKnapsack, solve, SolveOptions};
/// let p = McKnapsack::new(
///     vec![
///         vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
///         vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
///     ],
///     1.0,
/// );
/// let s = solve(&p, &SolveOptions::default()).unwrap();
/// assert_eq!(s.picks, vec![0, 1]); // buy efficiency from the cheap group
/// ```
pub fn solve(problem: &McKnapsack, opts: &SolveOptions) -> Result<Solution, SolveError> {
    problem.validate().map_err(SolveError::Invalid)?;
    if !problem.is_feasible() {
        return Err(SolveError::Infeasible);
    }
    let groups: Vec<Group> = problem.groups.iter().map(|g| preprocess(g)).collect();
    let mut searcher = Searcher {
        groups: &groups,
        classes: Classes::new(&groups),
        target: problem.target,
        deadline: Instant::now() + opts.time_limit,
        nodes: 0,
        timed_out: false,
        best: None,
    };
    let mut fixed: Vec<Option<usize>> = vec![None; groups.len()];
    searcher.search(&mut fixed);
    let (obj, picks_frontier) = searcher.best.ok_or(SolveError::Infeasible)?;
    let picks: Vec<usize> = picks_frontier
        .iter()
        .enumerate()
        .map(|(i, &p)| groups[i].frontier[p].orig)
        .collect();
    let (q, e) = problem.evaluate(&picks);
    debug_assert!((q - obj).abs() < 1e-9 * (1.0 + obj.abs()));
    Ok(Solution {
        picks,
        objective: q,
        efficiency: e,
        nodes: searcher.nodes,
        proven_optimal: !searcher.timed_out,
    })
}

/// Exhaustive reference solver for testing (cartesian product of options).
///
/// # Panics
///
/// Panics if the search space exceeds ~10⁷ assignments.
pub fn solve_bruteforce(problem: &McKnapsack) -> Result<Solution, SolveError> {
    problem.validate().map_err(SolveError::Invalid)?;
    let space: f64 = problem.groups.iter().map(|g| g.len() as f64).product();
    assert!(space <= 1e7, "brute force space too large ({space})");
    let m = problem.groups.len();
    let mut picks = vec![0usize; m];
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut nodes = 0u64;
    loop {
        nodes += 1;
        let (q, e) = problem.evaluate(&picks);
        if e + 1e-12 >= problem.target {
            match &best {
                Some((bq, _)) if *bq <= q => {}
                _ => best = Some((q, picks.clone())),
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == m {
                let (q, e) = match &best {
                    Some((_, p)) => problem.evaluate(p),
                    None => return Err(SolveError::Infeasible),
                };
                return Ok(Solution {
                    picks: best.unwrap().1,
                    objective: q,
                    efficiency: e,
                    nodes,
                    proven_optimal: true,
                });
            }
            picks[i] += 1;
            if picks[i] < problem.groups[i].len() {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn picks_cheapest_efficiency_source() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(3.0, 1.0)],
            ],
            2.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![0, 1, 1]);
        assert_eq!(s.objective, 4.0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn zero_target_takes_all_bases() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.1, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.2, 0.0), Choice::new(1.0, 1.0)],
            ],
            0.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![0, 0]);
        assert!((s.objective - 0.3).abs() < 1e-12);
    }

    #[test]
    fn full_target_takes_all_upgrades() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
            ],
            2.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![1, 1]);
    }

    #[test]
    fn infeasible_target_errors() {
        let p = McKnapsack::new(vec![vec![Choice::new(0.0, 0.5)]], 1.0);
        assert_eq!(solve(&p, &opts()), Err(SolveError::Infeasible));
    }

    #[test]
    fn dominated_options_never_picked() {
        // Option 1 dominates option 2 (more efficiency, less quality loss).
        let p = McKnapsack::new(
            vec![vec![
                Choice::new(0.0, 0.0),
                Choice::new(1.0, 1.0),
                Choice::new(2.0, 0.9),
            ]],
            0.5,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![1]);
    }

    #[test]
    fn non_convex_option_reachable() {
        // A point off the lower hull can still be the unique optimum; the
        // solver must find it by branching. Single group, target 0.6:
        // options: (q=0, e=0), (q=10, e=1.0), and off-hull (q=6, e=0.7).
        let p = McKnapsack::new(
            vec![vec![
                Choice::new(0.0, 0.0),
                Choice::new(10.0, 1.0),
                Choice::new(6.0, 0.7),
            ]],
            0.6,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![2]);
        assert_eq!(s.objective, 6.0);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(1234);
        for trial in 0..180 {
            // Every third trial draws efficiencies freely; the others from
            // ≤ 3 levels, so two-option groups share levels and the
            // exchange rule has classes (of every size, next to groups it
            // must leave alone) to act on.
            let levels: Vec<f64> = (0..1 + rng.below(3)).map(|_| rng.next_f64()).collect();
            let free = trial % 3 == 0;
            let m = 1 + rng.below(if free { 6 } else { 9 });
            let groups: Vec<Vec<Choice>> = (0..m)
                .map(|_| {
                    let n = 1 + rng.below(if free { 4 } else { 3 });
                    (0..n)
                        .map(|j| {
                            let e = match (free, j) {
                                (true, _) => rng.next_f64(),
                                (false, 0) => 0.0,
                                (false, _) => levels[rng.below(levels.len())],
                            };
                            Choice::new(rng.next_f64() * 10.0, e)
                        })
                        .collect()
                })
                .collect();
            let p = McKnapsack::new(groups, rng.next_f64() * m as f64 * 0.7);
            let exact = solve(&p, &opts());
            let brute = solve_bruteforce(&p);
            match (exact, brute) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() < 1e-9 * (1.0 + b.objective.abs()),
                        "trial {trial}: bb {} vs brute {}",
                        a.objective,
                        b.objective
                    );
                    assert!(a.efficiency + 1e-9 >= p.target);
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => panic!("trial {trial}: divergent results {a:?} vs {b:?}"),
            }
        }
    }

    /// The shape SNIP itself produces: `tinyllama-1b-sim`'s 22 blocks × 7
    /// two-option layers carry two distinct FP4 efficiencies (attention vs
    /// MLP projections). Without the exchange rule the 88- and 66-member
    /// symmetry classes make this exponential (targets 0.25–0.75 are still
    /// unproven after 10⁶ nodes); with it the search is a handful of nodes.
    #[test]
    fn two_level_154_group_instance_is_proven_in_few_nodes() {
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(154);
        let (attention, mlp) = (1.0 / 220.0, 2.0 / 165.0); // 88·a + 66·m = 1
        let groups: Vec<Vec<Choice>> = (0..154)
            .map(|i| {
                let e = if i % 7 < 4 { attention } else { mlp };
                vec![
                    Choice::new(rng.next_f64() * 1e-3, 0.0),
                    // Nearly equal costs: the LP bound cannot separate the
                    // exponentially many near-ties.
                    Choice::new(1.0 + 1e-2 * rng.next_f64(), e),
                ]
            })
            .collect();
        for target in [0.25, 0.5, 0.75, 0.8] {
            let p = McKnapsack::new(groups.clone(), target);
            let s = solve(&p, &opts()).unwrap();
            assert!(s.proven_optimal, "target {target}");
            assert!(s.nodes < 10_000, "target {target}: {} nodes", s.nodes);
            assert!(s.efficiency + 1e-12 >= target);
            // Optimal ⇒ within each level the upgraded layers are the
            // cheapest: no un-upgraded layer is cheaper than an upgraded one.
            for level in [attention, mlp] {
                let dq_where = |up: usize| {
                    let (groups, picks) = (&groups, &s.picks);
                    (0..154)
                        .filter(move |&i| groups[i][1].efficiency == level && picks[i] == up)
                        .map(move |i| groups[i][1].quality - groups[i][0].quality)
                };
                let dearest_up = dq_where(1).fold(f64::NEG_INFINITY, f64::max);
                let cheapest_down = dq_where(0).fold(f64::INFINITY, f64::min);
                assert!(dearest_up <= cheapest_down, "target {target}");
            }
        }
    }

    #[test]
    fn large_instance_solves_quickly() {
        // The SNIP shape: 560 layers × 2 options (the 70B model).
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(7);
        let groups: Vec<Vec<Choice>> = (0..560)
            .map(|_| {
                vec![
                    Choice::new(rng.next_f64() * 0.01, 0.0),
                    Choice::new(rng.next_f64(), 1.0 / 560.0),
                ]
            })
            .collect();
        let p = McKnapsack::new(groups, 0.5);
        let t0 = std::time::Instant::now();
        let s = solve(&p, &opts()).unwrap();
        assert!(s.proven_optimal);
        assert!(s.efficiency + 1e-9 >= 0.5);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn time_limit_returns_incumbent() {
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(8);
        let groups: Vec<Vec<Choice>> = (0..200)
            .map(|_| {
                (0..6)
                    .map(|_| Choice::new(rng.next_f64(), rng.next_f64()))
                    .collect()
            })
            .collect();
        let p = McKnapsack::new(groups, 60.0);
        let s = solve(
            &p,
            &SolveOptions {
                time_limit: Duration::from_millis(1),
            },
        );
        // Either solved fast or returned a feasible incumbent.
        if let Ok(s) = s {
            assert!(s.efficiency + 1e-9 >= 60.0);
        }
    }
}
