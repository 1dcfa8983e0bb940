//! # snip-pipeline
//!
//! Multi-rank transport and low-precision collectives for SNIP (paper §2.2).
//!
//! [`transport`] runs real multi-rank collectives and data-parallel training
//! over serialized byte frames, with ranks on OS threads (one driver:
//! [`transport::run_ranks`]) or in separate worker processes connected by
//! Unix sockets (one driver: [`transport::proc::launch`], fed typed
//! [`transport::proc::Task`]s). Both drivers take an optional
//! [`transport::ChaosPlan`] — fault injection is an argument, not a parallel
//! API — and both run the same rank code behind the [`transport::Endpoint`]
//! surface. [`collective`] holds the wire formats every hop uses. Each
//! rank's endpoint counts its own traffic, the drivers add the counts
//! ([`transport::TransportStats`]), and [`comm::codec_wire_bytes`] answers
//! the same payload volume analytically.
//!
//! Both fabrics are tested bit for bit against an in-proc ring simulator
//! whose hops go through the transports' own frame codec, so the oracle
//! pins the ring schedule and the codec is shared by construction. The
//! simulator is test support (`tests/support/mod.rs`), not part of this
//! crate's API. The pipeline-stage split and the 1F1B schedule simulator
//! that draws Fig. 12 live with their only users, in `snip-experiments`.
//!
//! # Example
//!
//! ```
//! use snip_pipeline::collective::{QuantizePolicy, Wire};
//! use snip_pipeline::transport::run_ranks;
//! use snip_tensor::rng::Rng;
//!
//! // Two ranks on OS threads all-reduce their gradients over an FP8 wire.
//! let grads = [vec![1.0f32; 64], vec![3.0f32; 64]];
//! let (reduced, stats) = run_ranks(2, None, |ep| {
//!     let mut rng = Rng::seed_from(ep.rank() as u64);
//!     ep.ring_all_reduce(
//!         &grads[ep.rank()],
//!         &Wire::fp8(16),
//!         QuantizePolicy::EveryHop,
//!         &mut rng,
//!     )
//!     .expect("fault-free mesh")
//! });
//! assert!(reduced.iter().all(|r| (r[0] - 4.0).abs() < 0.5));
//! assert!(stats.total_payload_bytes() > 0);
//! ```

pub mod collective;
pub mod comm;
pub mod transport;

pub use collective::{QuantizePolicy, Wire};
pub use transport::{
    channel_mesh, data_parallel_train, run_ranks, threaded_all_reduce, ChannelFabric, Endpoint,
    Fabric, FrameError, RankChunk, TransportError, TransportStats,
};

// The unit tests reach the test-support oracle under the same paths the
// integration tests use.
#[cfg(test)]
extern crate self as snip_pipeline;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
