//! # snip-experiments
//!
//! Shared harness for the binaries that regenerate every table and figure of
//! the SNIP paper (ROADMAP.md open item 6(j) holds the per-binary index:
//! which figure or table each one prints and which CI job, if any, runs it).
//!
//! All binaries accept `--quick` (fewer steps/items) and print the same
//! row/series structure as the paper's tables and figures.
//!
//! Every experiment's numbers are **independent of machine parallelism**:
//! the GEMM engine behind each training step splits work across
//! `snip-tensor`'s worker pool with a fixed per-element accumulation order,
//! so results are bit-identical whether a run uses one core, every core, or
//! an explicit `SNIP_THREADS=<n>` override — only wall-clock time changes.
//! (The pool-determinism property suite in `snip-tensor` pins this.)

pub mod harness;

pub use harness::*;
