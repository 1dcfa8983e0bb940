//! # snip-pipeline
//!
//! Pipeline-parallelism schedule simulator for SNIP (paper §5.3, Fig. 12).
//!
//! The paper's 70B runs use Megatron-style pipeline parallelism (PP = 8);
//! imbalanced per-stage compute creates bubbles that cap end-to-end speedup,
//! which is why SNIP's ILP gets a per-stage efficiency constraint. This crate
//! reproduces the *scheduling* side: contiguous stage partitions
//! ([`stage::StagePartition`]), a precision-dependent cost model
//! ([`cost::stage_costs`], FP4 = 2× FP8 = 4× BF16), an event-driven 1F1B
//! simulator ([`schedule::simulate_1f1b`]) and Fig. 12-style timelines
//! ([`timeline::render_timeline`]).
//!
//! It also houses the *transport* side: [`transport`] runs real multi-rank
//! collectives and data-parallel training over serialized byte frames, with
//! ranks on OS threads (one driver: [`transport::run_ranks`]) or in
//! separate worker processes connected by Unix sockets (one driver:
//! [`transport::proc::launch`], fed typed [`transport::proc::Task`]s). Both
//! drivers take an optional [`transport::ChaosPlan`] — fault injection is an
//! argument, not a parallel API — both run the same rank code behind the
//! [`transport::Endpoint`] surface, and both are bit-identical to the
//! in-proc [`collective`] oracle.
//!
//! # Example
//!
//! ```
//! use snip_core::Scheme;
//! use snip_nn::ModelConfig;
//! use snip_pipeline::{cost::stage_costs, schedule::simulate_1f1b, stage::StagePartition};
//! use snip_quant::Precision;
//!
//! let cfg = ModelConfig::tinyllama_1b_sim();
//! let partition = StagePartition::even(cfg.n_layers, 4);
//! let scheme = Scheme::uniform(Precision::Fp8, cfg.n_linear_layers());
//! let costs = stage_costs(&cfg, &scheme, &partition, 128);
//! let sim = simulate_1f1b(&costs, 8);
//! assert!(sim.bubble_fraction < 0.5);
//! ```

pub mod collective;
pub mod comm;
pub mod cost;
pub mod schedule;
pub mod stage;
pub mod timeline;
pub mod transport;

pub use collective::{
    ring_all_gather, ring_all_gather_ranked, ring_all_reduce, ring_all_reduce_ranked,
    ring_reduce_scatter, ring_reduce_scatter_ranked, CollectiveResult, QuantizePolicy, Wire,
};
pub use comm::{comm_saving_factor, step_comm_volume, CommVolume, WirePolicy};
pub use cost::{stage_costs, StageCost};
pub use schedule::{simulate_1f1b, Phase, PipelineSim, ScheduleEvent};
pub use stage::StagePartition;
pub use timeline::render_timeline;
pub use transport::{
    channel_mesh, data_parallel_train, pipeline_relay, run_ranks, threaded_all_reduce,
    ChannelFabric, Endpoint, Fabric, FrameError, RankChunk, TransportError, TransportStats,
};
