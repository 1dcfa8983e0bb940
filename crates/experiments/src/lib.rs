//! # snip-experiments
//!
//! Every table and figure of the SNIP paper's evaluation, as entries of one
//! registry behind one binary:
//!
//! ```text
//! cargo run --release -p snip-experiments --bin snip-exp -- fig3_accuracy_vs_efficiency --quick
//! cargo run --release -p snip-experiments --bin snip-exp -- --quick     # every entry, in order
//! ```
//!
//! `--quick` selects reduced sizes; an unknown name or flag exits 2
//! listing the names (`exp::REGISTRY` — ROADMAP.md open item 8(j) maps
//! each to its paper artefact). `SNIP_CKPT_DIR` moves the
//! trainer-checkpoint cache (default `target/snip_checkpoints`). The
//! crate's second binary, `obs_smoke`, validates the telemetry artifacts
//! and needs the process-wide `SNIP_TRACE`.
//!
//! The experiments share one skeleton (`harness`): a cached checkpoint
//! and **one** SNIP measurement of it (`Study`), from which Step-1
//! statistics, the divergence analysis and every named scheme
//! (`Method`) derive; resuming under a scheme yields one `Outcome`,
//! printed by one row printer (`Table`) or one curve printer
//! (`print_curves`). The 1F1B schedule simulator that draws Fig. 12
//! ([`stage`], [`cost`], [`schedule`], `timeline`) lives here, beside its
//! only users.
//!
//! The library exports what its callers use: the runner's entry points
//! ([`exp::select`], [`exp::run`], [`exp::usage`], [`Ctx::parse`]) and
//! the schedule simulator's three modules, which the integration tests
//! drive directly. Everything else is crate-internal.
//!
//! Every experiment's numbers are **independent of machine parallelism and
//! speed**: the GEMM engine behind each training step splits work across
//! `snip-tensor`'s worker pool with a fixed per-element accumulation order,
//! so results are bit-identical whether a run uses one core, every core, or
//! an explicit `SNIP_THREADS=<n>` override (the pool-determinism property
//! suite in `snip-tensor` pins this), and the runner fails if any ILP solve
//! stops at its wall-clock cap instead of proving its scheme optimal.

pub mod cost;
pub mod exp;
mod harness;
pub mod schedule;
pub mod stage;
mod timeline;

pub use harness::Ctx;
