//! Real multi-rank transport: ranks exchanging **serialized byte frames**
//! over pluggable fabrics.
//!
//! [`crate::collective`] simulates low-precision collectives in-process —
//! every rank's state lives in one address space and payloads are handed
//! around as `Vec<f32>`. This module is the real thing, twice over: the
//! rank-facing surface is [`Endpoint`], generic over a byte-level
//! [`Fabric`] backend, and everything that crosses a rank boundary is a
//! byte frame — packed codes, scales and codec metadata serialized through
//! [`snip_quant::wire`], BF16 payloads as raw `u16`s, exact payloads as raw
//! `f32`s. No `f32` slice is ever shared.
//!
//! Two fabrics ship, each behind **one driver**:
//!
//! * [`ChannelFabric`] — `R` ranks on `R` OS threads, one mpsc channel per
//!   directed link. [`run_ranks`] builds the mesh and runs one closure per
//!   rank.
//! * [`proc::SocketFabric`] — `R` ranks in `R` worker **processes**
//!   connected by Unix-domain sockets carrying length-prefixed frames.
//!   [`proc::launch`] spawns the workers by re-executing the current binary
//!   and hands each one a typed [`proc::Task`]; see the [`proc`] module
//!   docs for the handshake.
//!
//! Both drivers take an `Option<&ChaosPlan>` and are the only places a
//! [`ChaosFabric`] is built (a pass-through plan when no faults are asked
//! for), so fault injection is an argument, not a second set of entry
//! points. Rank code is written once against `Endpoint<F>` and runs
//! unchanged on either fabric, with or without faults; the named helpers
//! ([`threaded_all_reduce`], [`data_parallel_train`], …) are fault-free
//! delegations onto the drivers.
//!
//! The in-proc simulator is kept as the **oracle**: both fabrics' ring
//! reduce-scatter / all-gather are bit-identical to
//! [`crate::collective::ring_reduce_scatter_ranked`] (same reduced
//! gradients, same per-rank RNG streams), and the measured per-link payload
//! counters equal [`crate::comm::codec_wire_bytes`] exactly for every codec
//! — including ragged tails. That equivalence is what makes the analytic
//! accounting trustworthy, and it is pinned by the loopback tests in
//! `tests/transport_threads.rs` and `tests/transport_proc.rs` (run under
//! `--release` in CI as well, where timing and buffering bugs actually
//! surface).
//!
//! # Frames and accounting
//!
//! Frame layout lives in [`frame`]; decode failures are typed
//! ([`FrameError`]), so a corrupt peer surfaces as an error, not a panic
//! with a byte dump. Counters distinguish **payload** bytes — the accounted
//! wire volume (`4n` / `2n` / [`snip_quant::PackedTensor::wire_bytes`]) —
//! from **envelope** bytes (tags, frame headers and, on socket fabrics, the
//! stream length prefix): per-message metadata a real NIC would also move
//! but that the analytic model deliberately excludes, exactly like decode
//! tables and rotation seeds. Both are measured, on **both sides of every
//! link** — each rank counts what it sent *and* what it received, and the
//! two views must agree ([`TransportStats::two_sided`]); only payload must
//! match the analytic numbers.
//!
//! # Abort semantics
//!
//! There is no in-band abort message. A dying rank closes its links
//! (dropping channel senders, closing sockets), peers observe
//! [`TransportError::PeerClosed`] once in-flight frames drain, and the
//! failure cascades along whichever links ranks are blocked on — the mesh
//! fails fast instead of deadlocking, on threads and processes alike.

pub mod chaos;
pub mod fabric;
pub mod frame;
#[cfg(unix)]
pub mod proc;

pub use chaos::{data_parallel_train_with_recovery, ChaosFabric, ChaosPlan, Fault};
pub use fabric::{
    channel_mesh, is_cascade_error, ChannelFabric, Fabric, TransportError, DEFAULT_RECV_DEADLINE,
};
pub use frame::FrameError;

use crate::collective::{chunk_bounds, CollectiveResult, QuantizePolicy, Wire};
use frame::{decode_frame, encode_frame};
use snip_core::Trainer;
use snip_tensor::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared per-link counters. Sender ranks write the `tx_*` matrices,
/// receiver ranks the `rx_*` matrices; both are indexed `src * world + dst`.
pub(crate) struct LinkCounters {
    world: usize,
    tx_payload: Vec<AtomicU64>,
    tx_envelope: Vec<AtomicU64>,
    tx_frames: Vec<AtomicU64>,
    rx_payload: Vec<AtomicU64>,
    rx_envelope: Vec<AtomicU64>,
    rx_frames: Vec<AtomicU64>,
}

impl LinkCounters {
    pub(crate) fn new(world: usize) -> Self {
        let zeros = || (0..world * world).map(|_| AtomicU64::new(0)).collect();
        LinkCounters {
            world,
            tx_payload: zeros(),
            tx_envelope: zeros(),
            tx_frames: zeros(),
            rx_payload: zeros(),
            rx_envelope: zeros(),
            rx_frames: zeros(),
        }
    }

    fn record_tx(&self, src: usize, dst: usize, payload: u64, envelope: u64) {
        let i = src * self.world + dst;
        self.tx_payload[i].fetch_add(payload, Ordering::Relaxed);
        self.tx_envelope[i].fetch_add(envelope, Ordering::Relaxed);
        self.tx_frames[i].fetch_add(1, Ordering::Relaxed);
    }

    fn record_rx(&self, src: usize, dst: usize, payload: u64, envelope: u64) {
        let i = src * self.world + dst;
        self.rx_payload[i].fetch_add(payload, Ordering::Relaxed);
        self.rx_envelope[i].fetch_add(envelope, Ordering::Relaxed);
        self.rx_frames[i].fetch_add(1, Ordering::Relaxed);
    }
}

/// Measured traffic of one transport run: per-link payload bytes (the
/// quantity that must equal the analytic [`crate::comm::codec_wire_bytes`]),
/// plus envelope bytes and frame counts for honesty about what the channel
/// actually carried. Every link is counted on **both** sides — by its
/// sender and by its receiver — and the two views must agree
/// ([`TransportStats::two_sided`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportStats {
    world: usize,
    payload: Vec<u64>,
    envelope: Vec<u64>,
    frames: Vec<u64>,
    rx_payload: Vec<u64>,
    rx_envelope: Vec<u64>,
    rx_frames: Vec<u64>,
}

impl TransportStats {
    fn snapshot(c: &LinkCounters) -> Self {
        let read = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        TransportStats {
            world: c.world,
            payload: read(&c.tx_payload),
            envelope: read(&c.tx_envelope),
            frames: read(&c.tx_frames),
            rx_payload: read(&c.rx_payload),
            rx_envelope: read(&c.rx_envelope),
            rx_frames: read(&c.rx_frames),
        }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the sender.
    pub fn link_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.payload[src * self.world + dst]
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the
    /// **receiver** — must equal [`TransportStats::link_payload_bytes`] for
    /// a completed run.
    pub fn link_rx_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.rx_payload[src * self.world + dst]
    }

    /// Frames moved from `src` to `dst`, as counted by the sender.
    pub fn link_frames(&self, src: usize, dst: usize) -> u64 {
        self.frames[src * self.world + dst]
    }

    /// Total payload bytes across all links (sender side) — comparable 1:1
    /// with the in-proc simulator's `bytes_on_wire`.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload.iter().sum()
    }

    /// Total envelope bytes (tags, length fields, packed frame headers,
    /// and — on socket fabrics — stream length prefixes).
    pub fn total_envelope_bytes(&self) -> u64 {
        self.envelope.iter().sum()
    }

    /// Total frames across all links (sender side).
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().sum()
    }

    /// Whether every link's sender-side and receiver-side counters agree —
    /// payload, envelope and frame counts alike. True for every completed
    /// run: both ends of each link account the identical volume.
    pub fn two_sided(&self) -> bool {
        self.payload == self.rx_payload
            && self.envelope == self.rx_envelope
            && self.frames == self.rx_frames
    }
}

/// Bumps the failure counter matching a typed transport error —
/// `transport.{peer_closed,frame_error,timeout,killed,io_error}` — under
/// the usual zero-bit contract (one relaxed load when telemetry is off).
/// [`Endpoint::send`] / [`Endpoint::recv`] call it on every error path,
/// so the telemetry report counts faults exactly where ranks observe
/// them.
pub(crate) fn note_transport_failure(error: &TransportError) {
    if !snip_obs::enabled() {
        return;
    }
    let name = match error {
        TransportError::PeerClosed { .. } => "transport.peer_closed",
        TransportError::Frame { .. } | TransportError::Stream { .. } => "transport.frame_error",
        TransportError::Timeout { .. } => "transport.timeout",
        TransportError::Killed { .. } => "transport.killed",
        TransportError::Io { .. } => "transport.io_error",
    };
    snip_obs::counter_add(name, 1);
}

/// [`note_transport_failure`] for failures that only survive as display
/// strings — worker processes report errors over the control socket as
/// text, so the launcher classifies them by the typed errors' own
/// `Display` wording.
pub(crate) fn note_failure_message(message: &str) {
    if !snip_obs::enabled() {
        return;
    }
    let name = if message.contains("mid-collective") || message.contains("PeerClosed") {
        "transport.peer_closed"
    } else if message.contains("damaged stream") || message.contains("corrupt frame") {
        "transport.frame_error"
    } else if message.contains("timed out after") {
        "transport.timeout"
    } else if message.contains("chaos schedule") {
        "transport.killed"
    } else {
        "transport.io_error"
    };
    snip_obs::counter_add(name, 1);
}

/// Exports a measured [`TransportStats`] snapshot into the `snip-obs`
/// registry: bumps the global `transport.{payload_bytes,envelope_bytes,
/// frames}` counters and replaces the report's `"transport"` section with
/// this run's totals. Both mesh drivers call it — [`run_ranks`] for the
/// threaded [`ChannelFabric`], and [`proc::launch`] for the socket
/// fabric after the RESULT handshake has merged every worker's per-link
/// counters — so the two transports report through one path. One relaxed
/// atomic load when collection is off; reads only, so the run's numeric
/// results are untouched either way.
pub fn publish_transport_stats(stats: &TransportStats) {
    if !snip_obs::enabled() {
        return;
    }
    let (payload, envelope, frames) = (
        stats.total_payload_bytes(),
        stats.total_envelope_bytes(),
        stats.total_frames(),
    );
    snip_obs::counter_add("transport.payload_bytes", payload);
    snip_obs::counter_add("transport.envelope_bytes", envelope);
    snip_obs::counter_add("transport.frames", frames);
    use serde::Content;
    // Failure counters accumulate globally (across every rank thread and
    // every run in the process), so the report's transport section shows
    // the run's cumulative fault picture next to its traffic.
    let failures = Content::Map(
        [
            ("peer_closed", "transport.peer_closed"),
            ("frame_error", "transport.frame_error"),
            ("timeout", "transport.timeout"),
            ("killed", "transport.killed"),
            ("io_error", "transport.io_error"),
            ("retries", "transport.retries"),
        ]
        .iter()
        .map(|(key, counter)| {
            (
                String::from(*key),
                Content::U64(snip_obs::counter_value(counter)),
            )
        })
        .collect(),
    );
    snip_obs::report::set_section(
        "transport",
        Content::Map(vec![
            ("world".into(), Content::U64(stats.world() as u64)),
            ("payload_bytes".into(), Content::U64(payload)),
            ("envelope_bytes".into(), Content::U64(envelope)),
            ("frames".into(), Content::U64(frames)),
            ("two_sided".into(), Content::Bool(stats.two_sided())),
            ("failures".into(), failures),
        ]),
    );
}

/// One rank's connection into the mesh: frame semantics (quantize, encode,
/// account) over a byte-moving [`Fabric`] backend.
pub struct Endpoint<F: Fabric> {
    fabric: F,
    counters: Arc<LinkCounters>,
}

/// The chunk a rank owns after a transport reduce-scatter.
#[derive(Clone, Debug, PartialEq)]
pub struct RankChunk {
    /// First owned element (inclusive).
    pub lo: usize,
    /// Last owned element (exclusive).
    pub hi: usize,
    /// The fully reduced values of `[lo, hi)`.
    pub data: Vec<f32>,
}

impl<F: Fabric> Endpoint<F> {
    /// Wraps a fabric in a fresh endpoint with its own counters. (The
    /// threaded mesh instead shares one counter set across its rank
    /// endpoints, via the crate-internal constructor.)
    pub fn new(fabric: F) -> Self {
        let counters = Arc::new(LinkCounters::new(fabric.world()));
        Endpoint { fabric, counters }
    }

    pub(crate) fn with_counters(fabric: F, counters: Arc<LinkCounters>) -> Self {
        Endpoint { fabric, counters }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.fabric.rank()
    }

    /// Number of ranks in the mesh.
    pub fn world(&self) -> usize {
        self.fabric.world()
    }

    /// Snapshot of this endpoint's measured traffic.
    pub fn stats(&self) -> TransportStats {
        TransportStats::snapshot(&self.counters)
    }

    /// Bounds how long a blocking receive waits for a stalled peer before
    /// failing with [`TransportError::Timeout`]
    /// ([`fabric::DEFAULT_RECV_DEADLINE`] until changed).
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.fabric.set_recv_deadline(deadline);
    }

    /// Point-to-point send (pipeline p2p): quantizes `payload` through the
    /// wire's codec, serializes, and ships the frame to `dst`. Returns the
    /// payload bytes moved (counted on the `self → dst` link).
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerClosed`] if `dst`'s link is gone, or the
    /// backend's I/O failure.
    pub fn send(
        &mut self,
        dst: usize,
        payload: &[f32],
        wire: &Wire,
        rng: &mut Rng,
    ) -> Result<u64, TransportError> {
        let (frame, bytes) = encode_frame(wire, payload, rng);
        let wire_len = self
            .fabric
            .send_frame(dst, frame)
            .inspect_err(note_transport_failure)?;
        self.counters
            .record_tx(self.rank(), dst, bytes, wire_len - bytes);
        Ok(bytes)
    }

    /// Point-to-point receive: blocks for the next frame from `src` and
    /// decodes it.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerClosed`] if `src` died mid-collective,
    /// [`TransportError::Frame`] / [`TransportError::Stream`] if it
    /// delivered damaged bytes.
    pub fn recv(&mut self, src: usize) -> Result<Vec<f32>, TransportError> {
        let (frame, wire_len) = self
            .fabric
            .recv_frame(src)
            .inspect_err(note_transport_failure)?;
        let (payload, bytes) = decode_frame(&frame).map_err(|error| {
            let e = TransportError::Frame { src, error };
            note_transport_failure(&e);
            e
        })?;
        self.counters
            .record_rx(src, self.rank(), bytes, wire_len - bytes);
        Ok(payload)
    }

    /// Ring reduce-scatter over serialized frames. Bit-identical to
    /// [`crate::collective::ring_reduce_scatter_ranked`] run with each
    /// rank's RNG stream: after `world − 1` hops this rank owns the fully
    /// reduced chunk `(rank + 1) % world`.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    pub fn ring_reduce_scatter(
        &mut self,
        grad: &[f32],
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<RankChunk, TransportError> {
        let (r, w) = (self.rank(), self.world());
        let bounds = chunk_bounds(grad.len(), w);
        let mut local = grad.to_vec();
        let next = (r + 1) % w;
        let prev = (r + w - 1) % w;
        let exact = Wire::exact();
        for s in 0..w.saturating_sub(1) {
            let hop_wire = if policy == QuantizePolicy::EveryHop {
                wire
            } else {
                &exact
            };
            let c = (r + w - s % w) % w;
            let (lo, hi) = bounds[c];
            self.send(next, &local[lo..hi], hop_wire, rng)?;
            let cp = (prev + w - s % w) % w;
            let (plo, _) = bounds[cp];
            for (i, v) in self.recv(prev)?.iter().enumerate() {
                local[plo + i] += v;
            }
        }
        let (lo, hi) = bounds[(r + 1) % w];
        let mut data = local[lo..hi].to_vec();
        if policy == QuantizePolicy::FinalOnly {
            wire.quantize(&mut data, rng);
        }
        Ok(RankChunk { lo, hi, data })
    }

    /// Ring all-gather of the reduce-scatter result: every rank ends with
    /// the full `n`-element reduced vector. Bit-identical to
    /// [`crate::collective::ring_all_gather_ranked`].
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    pub fn ring_all_gather(
        &mut self,
        chunk: &RankChunk,
        n: usize,
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<Vec<f32>, TransportError> {
        let (r, w) = (self.rank(), self.world());
        let bounds = chunk_bounds(n, w);
        let mut have: Vec<Option<Vec<f32>>> = vec![None; w];
        have[(r + 1) % w] = Some(chunk.data.clone());
        let next = (r + 1) % w;
        let prev = (r + w - 1) % w;
        let exact = Wire::exact();
        for s in 0..w.saturating_sub(1) {
            let hop_wire = if policy == QuantizePolicy::EveryHop {
                wire
            } else {
                &exact
            };
            let c = (r + 1 + w - s % w) % w;
            let payload = have[c]
                .as_ref()
                .expect("ring schedule guarantees possession");
            self.send(next, payload, hop_wire, rng)?;
            let cp = (prev + 1 + w - s % w) % w;
            have[cp] = Some(self.recv(prev)?);
        }
        let mut full = vec![0.0f32; n];
        for (c, (lo, hi)) in bounds.iter().enumerate() {
            full[*lo..*hi].copy_from_slice(have[c].as_ref().expect("all chunks gathered"));
        }
        Ok(full)
    }

    /// Ring all-reduce: reduce-scatter followed by all-gather. Returns this
    /// rank's copy of the reduced vector.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    pub fn ring_all_reduce(
        &mut self,
        grad: &[f32],
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<Vec<f32>, TransportError> {
        let chunk = self.ring_reduce_scatter(grad, wire, policy, rng)?;
        self.ring_all_gather(&chunk, grad.len(), wire, policy, rng)
    }
}

/// A pipeline-parallel relay over p2p send/recv: rank 0 ships `payload`
/// through `wire` to rank 1, every middle rank forwards what it received to
/// the next stage (re-quantizing with its own RNG, as a real pipeline hop
/// does), and each rank returns what it received (rank 0 returns an empty
/// vector). Generic over the fabric, so the threaded and process backends
/// run the identical stage code.
///
/// # Errors
///
/// Any [`TransportError`] surfaced by the fabric mid-relay.
pub fn pipeline_relay<F: Fabric>(
    ep: &mut Endpoint<F>,
    payload: &[f32],
    wire: &Wire,
    rng: &mut Rng,
) -> Result<Vec<f32>, TransportError> {
    let (r, w) = (ep.rank(), ep.world());
    if r == 0 {
        if w > 1 {
            ep.send(1, payload, wire, rng)?;
        }
        return Ok(Vec::new());
    }
    let received = ep.recv(r - 1)?;
    if r + 1 < w {
        ep.send(r + 1, &received, wire, rng)?;
    }
    Ok(received)
}

/// Derives the wire RNG one rank uses for one training step, keyed by the
/// trainer's **absolute** step index. Restarting a per-step stream (rather
/// than running one stream across the whole loop) is what makes failure
/// recovery exact: a rank that rolls a faulted step back and retries it
/// replays the identical wire bytes an unfaulted run would have sent at
/// that step, wherever in the run the retry happens.
pub(crate) fn step_comm_rng(comm_seed: u64, rank: usize, step: u64) -> Rng {
    Rng::seed_from(
        comm_seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// One rank's outcome from a data-parallel run: the losses of the steps it
/// completed, plus the typed error that stopped it (`None` when it ran to
/// the end).
pub type RankRunOutcome = (Vec<f64>, Option<TransportError>);

/// One rank's synchronous data-parallel training loop: up to `steps` steps
/// of `trainer`, each all-reducing every parameter gradient through `wire`
/// (then averaging) before clipping and the optimizer update. Both fabrics
/// drive this one loop, with or without faults. A transport failure
/// mid-step rolls that step back
/// ([`Trainer::try_train_step_with_grad_hook`]) and ends the loop. Wire
/// randomness is re-derived every step from `(comm_seed, rank, absolute
/// step index)` — see [`step_comm_rng`] — so a retried step replays the
/// identical wire stream an unfaulted run would have used.
pub(crate) fn dp_train_loop<F: Fabric>(
    ep: &mut Endpoint<F>,
    trainer: &mut Trainer,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> RankRunOutcome {
    let inv_world = 1.0 / ep.world() as f32;
    let mut losses = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let mut rng = step_comm_rng(comm_seed, ep.rank(), trainer.step_count());
        let step = trainer.try_train_step_with_grad_hook(&mut |model| {
            let mut reduced = Ok(());
            model.visit_params_mut(&mut |p| {
                if reduced.is_err() {
                    return;
                }
                reduced = ep
                    .ring_all_reduce(p.grad().as_slice(), wire, policy, &mut rng)
                    .map(|sum| {
                        for (g, v) in p.grad_mut().as_mut_slice().iter_mut().zip(&sum) {
                            *g = v * inv_world;
                        }
                    });
            });
            reduced
        });
        match step {
            Ok(loss) => losses.push(loss),
            Err(e) => return (losses, Some(e)),
        }
    }
    (losses, None)
}

/// The root cause among the errors a failed mesh reported: the first that
/// is not an [`is_cascade_error`] consequence of somebody else's failure
/// (falling back to the first error when every rank saw only the cascade).
pub(crate) fn root_cause(errors: &[TransportError]) -> Option<&TransportError> {
    errors
        .iter()
        .find(|e| !is_cascade_error(&e.to_string()))
        .or(errors.first())
}

/// The message of a caught panic, when it carried one (`panic!` payloads
/// are a `String` or a `&str`).
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
}

/// Writes the telemetry artifacts at the end of a training run — the trace
/// and `RUN_REPORT.json`, if `SNIP_TRACE` named a path (no-op otherwise).
pub(crate) fn flush_run_artifacts() {
    if let Err(e) = snip_obs::flush() {
        eprintln!("snip: failed writing telemetry artifacts: {e}");
    }
}

/// The thread driver: builds a `world`-rank [`ChannelFabric`] mesh and runs
/// `f` once per rank, each on its own OS thread with its own [`Endpoint`].
/// Every fabric is decorated with a [`ChaosFabric`] running `chaos` — for
/// `None` a pass-through plan, bit- and counter-identical to the bare
/// fabric. Returns the per-rank results in rank order (closures that want
/// per-rank outcomes under faults return `Result`s) plus the measured
/// traffic.
///
/// # Panics
///
/// Panics if `world` is zero or any rank thread panics. A panicking rank's
/// endpoint is dropped during unwind, which closes its links; peers blocked
/// mid-collective observe [`TransportError::PeerClosed`] and fail fast
/// instead of deadlocking on a hop that will never arrive. The propagated
/// panic is the root cause, not a bystander's cascade panic.
pub fn run_ranks<T, F>(world: usize, chaos: Option<&ChaosPlan>, f: F) -> (Vec<T>, TransportStats)
where
    T: Send,
    F: Fn(&mut Endpoint<ChaosFabric<ChannelFabric>>) -> T + Send + Sync,
{
    let plan = chaos.cloned().unwrap_or_else(|| ChaosPlan::none(0));
    let counters = Arc::new(LinkCounters::new(world));
    let results = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = channel_mesh(world)
            .into_iter()
            .map(|fabric| {
                let fabric = ChaosFabric::new(fabric, plan.clone());
                let mut ep = Endpoint::with_counters(fabric, Arc::clone(&counters));
                scope.spawn(move || f(&mut ep))
            })
            .collect();
        let mut outputs = Vec::with_capacity(world);
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for h in handles {
            match h.join() {
                Ok(v) => outputs.push(v),
                Err(payload) => panics.push(payload),
            }
        }
        if !panics.is_empty() {
            // Resume the root cause, not a bystander's cascade panic: one
            // rank's real failure makes every peer blocked on it panic with
            // a secondary PeerClosed unwrap.
            let is_cascade = |p: &Box<dyn std::any::Any + Send>| {
                panic_text(p.as_ref()).is_some_and(is_cascade_error)
            };
            let root = panics.iter().position(|p| !is_cascade(p)).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(root));
        }
        outputs
    });
    let stats = TransportStats::snapshot(&counters);
    publish_transport_stats(&stats);
    (results, stats)
}

/// Runs a full threaded all-reduce with one gradient vector and one RNG
/// stream per rank, assembling the per-rank results into the same
/// [`CollectiveResult`] shape the in-proc simulator returns (with
/// `bytes_on_wire` taken from the *measured* payload counters).
///
/// # Panics
///
/// Panics if `grads` is empty, lengths disagree, `rngs.len()` differs, or
/// the collective fails mid-ring.
pub fn threaded_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &[Rng],
) -> (CollectiveResult, TransportStats) {
    check_world(grads, rngs);
    let n = grads[0].len();
    let (full, stats) = run_ranks(grads.len(), None, |ep| {
        let mut rng = rngs[ep.rank()].clone();
        ep.ring_all_reduce(&grads[ep.rank()], wire, policy, &mut rng)
            .expect("threaded all-reduce failed")
    });
    let result = CollectiveResult {
        per_rank: full,
        owned: vec![(0, n); grads.len()],
        bytes_on_wire: stats.total_payload_bytes(),
    };
    (result, stats)
}

pub(crate) fn check_world(grads: &[Vec<f32>], rngs: &[Rng]) {
    assert!(!grads.is_empty(), "no ranks");
    let n = grads[0].len();
    assert!(
        grads.iter().all(|g| g.len() == n),
        "ranks disagree on gradient length"
    );
    assert_eq!(rngs.len(), grads.len(), "need one RNG stream per rank");
}

/// Synchronous data-parallel training over the threaded transport: each
/// trainer runs on its own rank thread, and every step all-reduces every
/// parameter gradient through `wire` (then averages), so the optimizer on
/// each rank updates from the same reduced gradient a ZeRO-style DP run
/// would see. `chaos` injects a fault schedule (`None` runs calm).
///
/// Every rank returns its [`RankRunOutcome`]; trainers come back in
/// whatever state they reached — failed steps rolled back, completed steps
/// kept — so a caller can inspect, resume or retry.
///
/// Wire randomness is derived per rank *and per step* from `comm_seed` and
/// the absolute step index (`step_comm_rng`) — identical to
/// [`proc::proc_data_parallel_train`], which must reproduce a calm run bit
/// for bit, and to the recovery driver, whose retried steps must replay
/// this run's exact wire streams.
///
/// # Panics
///
/// Panics if `trainers` is empty.
pub fn try_data_parallel_train(
    trainers: Vec<Trainer>,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
    chaos: Option<&ChaosPlan>,
) -> (Vec<Trainer>, Vec<RankRunOutcome>, TransportStats) {
    assert!(!trainers.is_empty(), "no ranks");
    let dp_span = snip_obs::span("data_parallel_train");
    let world = trainers.len();
    // One slot per rank: rank `r`'s thread is the only one that locks slot
    // `r`, for the whole loop.
    let slots: Vec<std::sync::Mutex<Trainer>> =
        trainers.into_iter().map(std::sync::Mutex::new).collect();
    let (outcomes, stats) = run_ranks(world, chaos, |ep| {
        let mut trainer = slots[ep.rank()].lock().expect("uncontended trainer slot");
        dp_train_loop(ep, &mut trainer, steps, wire, policy, comm_seed)
    });
    let trainers = slots
        .into_iter()
        .map(|s| s.into_inner().expect("rank threads joined cleanly"))
        .collect();
    // Close the span before flushing so the run itself appears in the trace.
    drop(dp_span);
    flush_run_artifacts();
    (trainers, outcomes, stats)
}

/// Fault-free [`try_data_parallel_train`]: returns the trainers (advanced
/// `steps` steps), each rank's per-step losses, and the measured traffic.
///
/// # Panics
///
/// Panics if `trainers` is empty, or with the root-cause
/// [`TransportError`] if the all-reduce fails mid-run (a dead peer is
/// unrecoverable for synchronous DP without the recovery driver).
pub fn data_parallel_train(
    trainers: Vec<Trainer>,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> (Vec<Trainer>, Vec<Vec<f64>>, TransportStats) {
    let (trainers, outcomes, stats) =
        try_data_parallel_train(trainers, steps, wire, policy, comm_seed, None);
    let (losses, errors): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let errors: Vec<TransportError> = errors.into_iter().flatten().collect();
    if let Some(root) = root_cause(&errors) {
        panic!("data-parallel all-reduce failed: {root}");
    }
    (trainers, losses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{exact_sum, ring_reduce_scatter_ranked};
    use snip_quant::PackedQuantize;

    fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(seed);
        (0..ranks)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    fn reduce_scatter(
        grads: &[Vec<f32>],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &[Rng],
    ) -> (Vec<RankChunk>, TransportStats) {
        run_ranks(grads.len(), None, |ep| {
            let mut rng = rngs[ep.rank()].clone();
            ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
                .expect("threaded reduce-scatter failed")
        })
    }

    #[test]
    fn frames_round_trip_every_wire_kind() {
        let payload: Vec<f32> = (0..37).map(|i| (i as f32 - 15.0) * 0.23).collect();
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let mut enc_rng = Rng::seed_from(11);
            let mut ref_rng = Rng::seed_from(11);
            let (frame, bytes) = encode_frame(&wire, &payload, &mut enc_rng);
            let mut reference = payload.clone();
            let measured = wire.transmit(&mut reference, &mut ref_rng);
            assert_eq!(bytes, measured, "{}", wire.label());
            let (decoded, rx_bytes) = decode_frame(&frame).expect("valid frame");
            assert_eq!(rx_bytes, bytes, "{}: both sides count alike", wire.label());
            assert_eq!(decoded.len(), payload.len(), "{}", wire.label());
            for (a, b) in decoded.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs {b}", wire.label());
            }
        }
    }

    #[test]
    fn threaded_reduce_scatter_matches_ranked_oracle_bit_for_bit() {
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::fp8(16)] {
            for policy in [QuantizePolicy::EveryHop, QuantizePolicy::FinalOnly] {
                let grads = make_grads(4, 53, 3);
                let rngs: Vec<Rng> = (0..4).map(|r| Rng::seed_from(40 + r)).collect();
                let (threaded, stats) = reduce_scatter(&grads, &wire, policy, &rngs);
                let mut oracle_rngs = rngs.clone();
                let oracle = ring_reduce_scatter_ranked(&grads, &wire, policy, &mut oracle_rngs);
                let owned: Vec<_> = threaded.iter().map(|c| (c.lo, c.hi)).collect();
                assert_eq!(owned, oracle.owned, "{}", wire.label());
                assert_eq!(
                    stats.total_payload_bytes(),
                    oracle.bytes_on_wire,
                    "{}",
                    wire.label()
                );
                for (t, o) in threaded.iter().zip(&oracle.per_rank) {
                    for (a, b) in t.data.iter().zip(o) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{} {policy:?}", wire.label());
                    }
                }
            }
        }
    }

    #[test]
    fn per_link_counters_cover_only_ring_neighbours_and_agree_both_sides() {
        let grads = make_grads(4, 64, 7);
        let rngs: Vec<Rng> = (0..4).map(Rng::seed_from).collect();
        let (_, stats) = reduce_scatter(&grads, &Wire::fp8(16), QuantizePolicy::EveryHop, &rngs);
        for src in 0..4 {
            for dst in 0..4 {
                let bytes = stats.link_payload_bytes(src, dst);
                if dst == (src + 1) % 4 {
                    // 3 hops × 16 elements × (1 B code + f32 scale per tile).
                    assert_eq!(bytes, 3 * (16 + 4), "{src}->{dst}");
                    assert_eq!(stats.link_frames(src, dst), 3);
                } else {
                    assert_eq!(bytes, 0, "{src}->{dst} should be silent");
                }
                assert_eq!(
                    stats.link_rx_payload_bytes(src, dst),
                    bytes,
                    "{src}->{dst}: receiver must count what the sender counted"
                );
            }
        }
        assert!(stats.two_sided(), "tx and rx views must agree");
        assert!(
            stats.total_envelope_bytes() > 0,
            "envelopes are measured too"
        );
    }

    #[test]
    fn p2p_send_recv_round_trips_packed_payloads() {
        let payload: Vec<f32> = (0..29).map(|i| i as f32 * 0.4 - 5.0).collect();
        let expect = {
            let mut reference = payload.clone();
            Wire::fp4(8).quantize(&mut reference, &mut Rng::seed_from(1));
            reference
        };
        let (outputs, stats) = run_ranks(2, None, |ep| {
            if ep.rank() == 0 {
                let mut rng = Rng::seed_from(1);
                ep.send(1, &payload, &Wire::fp4(8), &mut rng).unwrap();
                Vec::new()
            } else {
                ep.recv(0).unwrap()
            }
        });
        for (a, b) in outputs[1].iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            stats.link_payload_bytes(0, 1),
            Wire::fp4(8)
                .codec()
                .unwrap()
                .packed_wire_bytes(1, 29)
                .unwrap()
        );
        assert_eq!(stats.link_payload_bytes(1, 0), 0);
    }

    #[test]
    fn per_link_channels_keep_sources_apart() {
        // Rank 2 receives from 0 and 1 in the *opposite* order they were
        // sent; per-link FIFO channels must keep the streams apart.
        let (outputs, _) = run_ranks(3, None, |ep| {
            let mut rng = Rng::seed_from(9);
            match ep.rank() {
                0 => {
                    ep.send(2, &[1.0, 2.0], &Wire::exact(), &mut rng).unwrap();
                    ep.send(2, &[3.0], &Wire::exact(), &mut rng).unwrap();
                    Vec::new()
                }
                1 => {
                    ep.send(2, &[9.0], &Wire::exact(), &mut rng).unwrap();
                    Vec::new()
                }
                _ => {
                    let b = ep.recv(1).unwrap();
                    let a1 = ep.recv(0).unwrap();
                    let a2 = ep.recv(0).unwrap();
                    vec![b, a1, a2]
                }
            }
        });
        assert_eq!(outputs[2], vec![vec![9.0], vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn all_reduce_reaches_the_exact_sum_on_exact_wires() {
        let grads = make_grads(5, 41, 13);
        let exact = exact_sum(&grads);
        let rngs: Vec<Rng> = (0..5).map(Rng::seed_from).collect();
        let (result, _) =
            threaded_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &rngs);
        for rank in &result.per_rank {
            for (got, want) in rank.iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn panicking_rank_aborts_the_mesh_instead_of_deadlocking() {
        // Rank 1 dies before sending; ranks 0 and 2 are blocked waiting on
        // it. Its links close during unwind, so peers observe PeerClosed
        // and fail fast — the whole call panics (propagated by run_ranks)
        // rather than hanging forever.
        let result = std::panic::catch_unwind(|| {
            run_ranks(3, None, |ep| {
                let mut rng = Rng::seed_from(1);
                if ep.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                ep.send((ep.rank() + 1) % 3, &[1.0], &Wire::exact(), &mut rng)
                    .unwrap();
                ep.recv(1).unwrap()
            })
        });
        // The propagated panic is the root cause, not a peer's cascade.
        let payload = result.expect_err("panic must propagate, not deadlock");
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            text.contains("rank 1 exploded"),
            "got panic payload {text:?}"
        );
    }

    #[test]
    fn dead_peer_surfaces_as_a_typed_peer_closed_error() {
        let (outcomes, _) = run_ranks(2, None, |ep| {
            if ep.rank() == 0 {
                // Rank 0 exits immediately, closing its links.
                Ok(Vec::new())
            } else {
                ep.recv(0)
            }
        });
        assert_eq!(outcomes[0], Ok(Vec::new()));
        assert_eq!(outcomes[1], Err(TransportError::PeerClosed { rank: 0 }));
    }

    #[test]
    fn in_flight_frames_drain_before_peer_closed() {
        // A rank that sends and exits must still deliver: closure is only
        // observed after the buffered frames are consumed (socket-EOF
        // semantics on channels).
        let (outputs, _) = run_ranks(2, None, |ep| {
            let mut rng = Rng::seed_from(2);
            if ep.rank() == 0 {
                ep.send(1, &[4.0, 5.0], &Wire::exact(), &mut rng).unwrap();
                (Vec::new(), None)
            } else {
                let got = ep.recv(0).unwrap();
                let after = ep.recv(0);
                (got, Some(after))
            }
        });
        assert_eq!(outputs[1].0, vec![4.0, 5.0]);
        assert_eq!(
            outputs[1].1,
            Some(Err(TransportError::PeerClosed { rank: 0 }))
        );
    }

    #[test]
    fn single_rank_transport_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let rngs = vec![Rng::seed_from(0)];
        let (rs, stats) = reduce_scatter(&grads, &Wire::fp4(8), QuantizePolicy::EveryHop, &rngs);
        assert_eq!(stats.total_payload_bytes(), 0);
        assert_eq!(stats.total_frames(), 0);
        assert_eq!(rs[0].data, grads[0]);
    }

    #[test]
    fn pipeline_relay_forwards_stage_to_stage() {
        let payload: Vec<f32> = (0..21).map(|i| i as f32 * 0.3 - 2.0).collect();
        let (received, stats) = run_ranks(3, None, |ep| {
            let mut rng = Rng::seed_from(1 + ep.rank() as u64);
            pipeline_relay(ep, &payload, &Wire::exact(), &mut rng).expect("relay")
        });
        assert!(received[0].is_empty());
        assert_eq!(received[1], payload);
        assert_eq!(received[2], payload);
        assert_eq!(stats.link_frames(0, 1), 1);
        assert_eq!(stats.link_frames(1, 2), 1);
        assert_eq!(stats.link_frames(2, 0), 0);
        assert!(stats.two_sided());
    }
}
