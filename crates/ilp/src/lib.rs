//! # snip-ilp
//!
//! Exact Integer-Linear-Programming solver for SNIP's precision policy
//! (paper §5.2–§5.3).
//!
//! SNIP maps layer-wise precision selection to a **multiple-choice knapsack**:
//! each layer is a decision group, each precision assignment an option with a
//! quality loss `q` and an efficiency saving `e`; exactly one option per
//! layer must be picked while the total efficiency meets a target. The
//! solver is an exact branch-and-bound with LP-relaxation bounds
//! ([`solve()`]) and a pipeline-stage-aware grouped variant ([`solve_grouped`])
//! implementing the paper's per-stage constraint (Eq. 5).
//!
//! # Example
//!
//! ```
//! use snip_ilp::{Choice, McKnapsack, solve, SolveOptions};
//!
//! // Two layers, each choosing between FP8 (no saving, no loss) and FP4
//! // (full saving, some loss). Layer 0 is the cheaper one to quantize.
//! let problem = McKnapsack::new(
//!     vec![
//!         vec![Choice::new(0.01, 0.0), Choice::new(0.02, 0.5)],
//!         vec![Choice::new(0.01, 0.0), Choice::new(0.90, 0.5)],
//!     ],
//!     0.5,
//! );
//! let solution = solve(&problem, &SolveOptions::default()).unwrap();
//! assert_eq!(solution.picks, vec![1, 0]);
//! ```

pub mod balanced;
pub mod grouped;
pub mod problem;
pub mod solve;

pub use balanced::{imbalance_fraction, stage_times, time_balanced_targets};
pub use grouped::{contiguous_stages, solve_grouped};
pub use problem::{Choice, McKnapsack};
pub use solve::{solve, SolveError, SolveOptions};

// The unit tests reach the test-support brute-force solver under the same
// path the root property suite uses.
#[cfg(test)]
extern crate self as snip_ilp;
#[cfg(test)]
#[path = "../tests/support/bruteforce.rs"]
mod bruteforce;
