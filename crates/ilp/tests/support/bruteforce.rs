//! Test support: the exhaustive solver the branch-and-bound is checked
//! against. The root property suite includes this file by `#[path]`; the
//! crate's unit tests reach it through a `#[path]` include in `lib.rs`.

use snip_ilp::solve::Solution;
use snip_ilp::{McKnapsack, SolveError};

/// Exhaustive reference solver: the best of every assignment (the
/// cartesian product of the groups' options) that meets the target.
///
/// # Errors
///
/// [`SolveError::Invalid`] for malformed instances, [`SolveError::Infeasible`]
/// when no assignment reaches the target.
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
