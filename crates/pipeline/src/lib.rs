//! # snip-pipeline
//!
//! Multi-rank transport and low-precision collectives for SNIP (paper §2.2,
//! §5.3).
//!
//! [`transport`] runs real multi-rank collectives and data-parallel training
//! over serialized byte frames, with ranks on OS threads (one driver:
//! [`transport::run_ranks`]) or in separate worker processes connected by
//! Unix sockets (one driver: [`transport::proc::launch`], fed typed
//! [`transport::proc::Task`]s). Both drivers take an optional
//! [`transport::ChaosPlan`] — fault injection is an argument, not a parallel
//! API — both run the same rank code behind the [`transport::Endpoint`]
//! surface, and both are bit-identical to the in-proc [`collective`] oracle.
//! [`comm`] answers the same byte volumes analytically, and
//! [`stage::StagePartition`] is the contiguous block → pipeline-stage split
//! the stage-aware ILP constrains by (the paper's 22 blocks over 4 stages
//! are 6/6/6/4). The 1F1B schedule *simulator* that draws Fig. 12 lives
//! with its only users, in `snip-experiments`.
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
pub mod stage;
pub mod transport;

pub use collective::{
    ring_all_gather, ring_all_gather_ranked, ring_all_reduce, ring_all_reduce_ranked,
    ring_reduce_scatter, ring_reduce_scatter_ranked, CollectiveResult, QuantizePolicy, Wire,
};
pub use comm::{comm_saving_factor, step_comm_volume, CommVolume, WirePolicy};
pub use stage::StagePartition;
pub use transport::{
    channel_mesh, data_parallel_train, pipeline_relay, run_ranks, threaded_all_reduce,
    ChannelFabric, Endpoint, Fabric, FrameError, RankChunk, TransportError, TransportStats,
};
