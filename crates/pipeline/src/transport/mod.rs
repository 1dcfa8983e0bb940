//! Real multi-rank transport: ranks exchanging **serialized byte frames**
//! over pluggable fabrics.
//!
//! The rank-facing surface is [`Endpoint`], generic over a byte-level
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
//!   [`proc::launch`] spawns the workers by re-executing the current binary,
//!   writes each one a typed [`proc::Task`] on its stdin and reads its
//!   report from its stdout; see the [`proc`] module docs for the protocol.
//!
//! Both drivers take an `Option<&ChaosPlan>` and are the only places a
//! [`ChaosFabric`] is built, so rank code is written once against
//! `Endpoint<F>` and runs on either fabric, with or without faults; the
//! named helpers ([`threaded_all_reduce`], [`data_parallel_train`], …) are
//! fault-free delegations onto the drivers.
//!
//! # Collectives and the oracle
//!
//! [`data_parallel_train`] puts one [`Trainer`] per rank thread and
//! all-reduces every gradient through the trainer's gradient hook
//! (`dp_train_loop`, the one DP step loop both fabrics run).
//! [`crate::collective`] keeps only the wire formats, and each driver
//! returns its fabric's own shapes ([`threaded_all_reduce`]: the vectors
//! and stats of [`run_ranks`]; [`proc::proc_all_reduce`]: those of
//! [`proc::launch`]).
//!
//! The all-gather encodes each reduced chunk once — the owner keeps the
//! frame's decode, the ring forwards its bytes, with no per-hop encode or
//! draw — so every rank ends an all-reduce with the same bits. The
//! **oracle** is an in-proc ring simulator kept with the tests
//! (`tests/support/mod.rs`, also compiled into this crate's unit tests; not
//! crate API), one [`Rng`] stream per rank. Its hops go through [`frame`]'s
//! codec ([`Wire::transmit`]; the tests check that codec against the
//! quantizer's dense oracle), so what it pins is the ring schedule: both
//! fabrics are bit-identical to it — reduced gradients, RNG streams, byte
//! counts — and their per-link payload counters equal
//! [`crate::comm::codec_wire_bytes`] for every codec, ragged tails
//! included (`tests/transport_threads.rs`, `tests/transport_proc.rs`,
//! `tests/collective_properties.rs`, also run under `--release` in CI,
//! where timing bugs surface). A peer's chunk of the wrong length is a
//! typed [`FrameError::Elements`], not an index panic.
//!
//! # Frames and accounting
//!
//! Frame layout lives in [`frame`], written and read by
//! [`snip_quant::wire`]'s field codec; a [`Frame`] moves with the CRC its
//! writer took, which the socket envelope carries. Decode failures are
//! typed ([`FrameError`]), never a panic. Each [`Endpoint`] counts what its rank
//! sent and received in a [`TransportStats`], and each driver adds its
//! ranks' ledgers — [`run_ranks`] as the threads join, [`proc::launch`]
//! from every worker's report, `ERROR` included — and publishes the sum
//! ([`publish_transport_stats`]) whether or not a rank failed (a worker
//! that exits without a report adds no ledger). **Payload**
//! bytes (`4n` / `2n` / [`snip_quant::PackedTensor::wire_bytes`]) must
//! match the analytic numbers; **envelope** bytes (tags, frame headers, stream length
//! prefixes) are measured but, like decode tables and rotation seeds,
//! excluded from [`crate::comm::codec_wire_bytes`].
//!
//! # Abort semantics and root-cause attribution
//!
//! There is no in-band abort message. A dying rank closes its links
//! (dropping channel senders, closing sockets), peers observe
//! [`TransportError::PeerClosed`] once in-flight frames drain, and the
//! failure cascades along whichever links ranks are blocked on — the mesh
//! fails fast instead of deadlocking, on threads and processes alike.
//!
//! Every [`Endpoint`] records the first [`TransportError`] it observes, and
//! a failed rank is judged by the [`FailureClass`] of that record
//! ([`FailureClass::Task`] when there is none), never by its text. One rule,
//! `root_cause` — the first failure that is not a cascade, else the first —
//! picks what every driver reports: the panic [`run_ranks`] resumes (each
//! rank's panic is caught before its endpoint drops), the error
//! [`threaded_all_reduce`], [`data_parallel_train`] and
//! [`data_parallel_train_with_recovery`] fail with, and the
//! [`proc::ProcError::Worker`] of [`proc::launch`], whose class the
//! worker's `ERROR` report carries. The class also names the `snip-obs`
//! failure counter (`transport.{peer_closed,frame_error,timeout,killed,
//! io_error}`, none for a task failure): the endpoint bumps it wherever a
//! rank observes an error, the launcher once per `ERROR` report (workers
//! publish no telemetry), and [`publish_transport_stats`] reports them
//! with `transport.retries` under `failures`.

pub mod chaos;
pub mod fabric;
pub mod frame;
#[cfg(unix)]
pub mod proc;

pub use chaos::{data_parallel_train_with_recovery, ChaosFabric, ChaosPlan, Fault};
pub use fabric::{
    channel_mesh, ChannelFabric, Fabric, FailureClass, TransportError, DEFAULT_RECV_DEADLINE,
};
pub use frame::{Frame, FrameError};

use crate::collective::{chunk_bounds, hop_wire, QuantizePolicy, Wire};
use frame::{decode_frame, encode_frame};
use serde::{Deserialize, Serialize};
use snip_core::Trainer;
use snip_tensor::arena;
use snip_tensor::rng::Rng;
use std::panic::AssertUnwindSafe;

/// The payload bytes, envelope bytes and frames one side of one directed
/// link counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct LinkCount {
    payload: u64,
    envelope: u64,
    frames: u64,
}

impl LinkCount {
    fn record(&mut self, payload: u64, envelope: u64) {
        self.payload += payload;
        self.envelope += envelope;
        self.frames += 1;
    }
}

/// Measured traffic: per-link payload bytes (the quantity that must equal
/// the analytic [`crate::comm::codec_wire_bytes`]), plus envelope bytes
/// and frame counts for honesty about what the channel actually carried.
/// Every link is counted on **both** sides — `tx` by its sender, `rx` by
/// its receiver, each indexed `src * world + dst` — and the two views must
/// agree ([`TransportStats::two_sided`]).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransportStats {
    world: usize,
    tx: Vec<LinkCount>,
    rx: Vec<LinkCount>,
}

impl TransportStats {
    /// An empty ledger for a `world`-rank mesh.
    pub(crate) fn new(world: usize) -> Self {
        let links = vec![LinkCount::default(); world * world];
        TransportStats {
            world,
            tx: links.clone(),
            rx: links,
        }
    }

    /// Adds `other`'s counts link by link.
    ///
    /// # Errors
    ///
    /// A report of another world, or with `tx` / `rx` not `world²` long: on
    /// the socket fabric it is a worker's JSON, checked, never trusted.
    pub(crate) fn merge(&mut self, other: &TransportStats) -> Result<(), String> {
        let links = self.world * self.world;
        if other.world != self.world || other.tx.len() != links || other.rx.len() != links {
            return Err("traffic report of another mesh shape".into());
        }
        // Saturating, so a forged report cannot overflow the launcher.
        let pairs = self.tx.iter_mut().zip(&other.tx);
        for (mine, theirs) in pairs.chain(self.rx.iter_mut().zip(&other.rx)) {
            mine.payload = mine.payload.saturating_add(theirs.payload);
            mine.envelope = mine.envelope.saturating_add(theirs.envelope);
            mine.frames = mine.frames.saturating_add(theirs.frames);
        }
        Ok(())
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the sender.
    pub fn link_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.tx[src * self.world + dst].payload
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the
    /// **receiver** — must equal [`TransportStats::link_payload_bytes`] for
    /// a completed run.
    pub fn link_rx_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.rx[src * self.world + dst].payload
    }

    /// Frames moved from `src` to `dst`, as counted by the sender.
    pub fn link_frames(&self, src: usize, dst: usize) -> u64 {
        self.tx[src * self.world + dst].frames
    }

    /// Total payload bytes across all links (sender side) — comparable 1:1
    /// with the test-support simulator's `bytes_on_wire`.
    pub fn total_payload_bytes(&self) -> u64 {
        self.tx.iter().map(|l| l.payload).sum()
    }

    /// Total envelope bytes (tags, length fields, packed frame headers,
    /// and — on socket fabrics — stream length prefixes).
    pub fn total_envelope_bytes(&self) -> u64 {
        self.tx.iter().map(|l| l.envelope).sum()
    }

    /// Total frames across all links (sender side).
    pub fn total_frames(&self) -> u64 {
        self.tx.iter().map(|l| l.frames).sum()
    }

    /// The first link `(src, dst)` whose sender-side and receiver-side
    /// counts differ — payload, envelope or frames — if any.
    pub(crate) fn disagreement(&self) -> Option<(usize, usize)> {
        let i = self.tx.iter().zip(&self.rx).position(|(t, r)| t != r)?;
        Some((i / self.world, i % self.world))
    }

    /// Whether every link's sender-side and receiver-side counts agree.
    /// True for every completed run: both ends of each link account the
    /// identical volume.
    pub fn two_sided(&self) -> bool {
        self.tx == self.rx
    }
}

/// Bumps the failure counter of `class`, if it has one, under the zero-bit
/// contract: on every error path of an [`Endpoint`], and once per worker
/// `ERROR` report in [`proc::launch`].
pub(crate) fn note_failure(class: FailureClass) {
    if let Some(name) = class.counter().filter(|_| snip_obs::enabled()) {
        snip_obs::counter_add(name, 1);
    }
}

/// Exports a run's summed [`TransportStats`] into the `snip-obs`
/// registry: bumps the global `transport.{payload_bytes,envelope_bytes,
/// frames}` counters and replaces the report's `"transport"` section with
/// this run's totals. Both mesh drivers call it, on success and on
/// failure, [`proc::launch`] after merging its workers' ledgers. One relaxed atomic load when collection
/// is off; reads only, so the run's numeric results are untouched.
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
    let counters = FailureClass::ALL.iter().filter_map(|class| class.counter());
    let failures = Content::Map(
        counters
            .chain(["transport.retries"])
            .map(|counter| {
                let key = counter.trim_start_matches("transport.").to_string();
                (key, Content::U64(snip_obs::counter_value(counter)))
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
    stats: TransportStats,
    /// The first error this rank observed, which a failed rank is judged by.
    failure: Option<TransportError>,
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
    /// Wraps a fabric in a fresh endpoint with an empty traffic ledger.
    pub fn new(fabric: F) -> Self {
        let stats = TransportStats::new(fabric.world());
        Endpoint {
            fabric,
            stats,
            failure: None,
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.fabric.rank()
    }

    /// Number of ranks in the mesh.
    pub fn world(&self) -> usize {
        self.fabric.world()
    }

    /// This rank's traffic: the `tx` row of its sends and the `rx` column of
    /// its receives. A driver returns the mesh-wide sum over ranks.
    pub fn stats(&self) -> TransportStats {
        self.stats.clone()
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
        self.send_frame(dst, frame, bytes)
    }

    /// Ships an encoded frame to `dst`, counting `bytes` of it as payload
    /// and the rest of what the fabric moved as envelope.
    fn send_frame(&mut self, dst: usize, frame: Frame, bytes: u64) -> Result<u64, TransportError> {
        let wire_len = self
            .fabric
            .send_frame(dst, frame)
            .map_err(|e| self.failed(e))?;
        let link = self.rank() * self.world() + dst;
        self.stats.tx[link].record(bytes, wire_len - bytes);
        Ok(bytes)
    }

    /// Every error path of the endpoint: counts `error` and keeps it if it
    /// is the first this rank observed.
    fn failed(&mut self, error: TransportError) -> TransportError {
        note_failure(FailureClass::of(Some(&error)));
        self.failure.get_or_insert_with(|| error.clone());
        error
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
        self.recv_frame(src, None).map(|(_, payload, _)| payload)
    }

    /// Blocks for the next frame from `src` and counts it. Returns the
    /// frame itself (so it can be forwarded with the CRC it arrived with),
    /// its decoded payload and its accounted payload bytes. A payload of
    /// another length than `expect` is a typed [`FrameError::Elements`].
    fn recv_frame(
        &mut self,
        src: usize,
        expect: Option<usize>,
    ) -> Result<(Frame, Vec<f32>, u64), TransportError> {
        let (frame, wire_len) = self.fabric.recv_frame(src).map_err(|e| self.failed(e))?;
        let (payload, bytes) = decode_frame(&frame)
            .and_then(|(payload, bytes)| match expect {
                Some(expect) if payload.len() != expect => Err(FrameError::Elements {
                    expect,
                    got: payload.len(),
                }),
                _ => Ok((payload, bytes)),
            })
            .map_err(|error| self.failed(TransportError::Frame { src, error }))?;
        let link = src * self.world() + self.rank();
        self.stats.rx[link].record(bytes, wire_len - bytes);
        Ok((frame, payload, bytes))
    }

    /// Ring reduce-scatter over serialized frames: after `world − 1` hops
    /// this rank owns the fully reduced chunk `(rank + 1) % world`. Every
    /// hop ships through `wire` under [`QuantizePolicy::EveryHop`]; under
    /// [`QuantizePolicy::FinalOnly`] hops are exact and the owned chunk
    /// passes once through `wire`'s hop codec ([`Wire::transmit`]). The
    /// tests pin it bit for bit against the in-proc ring simulator run
    /// with each rank's RNG stream.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring;
    /// [`FrameError::Elements`] if the ranks' vectors differ in length.
    pub fn ring_reduce_scatter(
        &mut self,
        grad: &[f32],
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<RankChunk, TransportError> {
        let (r, w) = (self.rank(), self.world());
        let bounds = chunk_bounds(grad.len(), w);
        let mut local = arena::take(grad.len());
        local.copy_from_slice(grad);
        let (next, prev) = ((r + 1) % w, (r + w - 1) % w);
        let hop_wire = hop_wire(wire, policy);
        for s in 0..w.saturating_sub(1) {
            let (lo, hi) = bounds[(r + w - s) % w];
            self.send(next, &local[lo..hi], &hop_wire, rng)?;
            let (plo, phi) = bounds[(prev + w - s) % w];
            let (_, payload, _) = self.recv_frame(prev, Some(phi - plo))?;
            for (l, v) in local[plo..phi].iter_mut().zip(&payload) {
                *l += v;
            }
            arena::give(payload);
        }
        let (lo, hi) = bounds[(r + 1) % w];
        let mut data = arena::take(hi - lo);
        data.copy_from_slice(&local[lo..hi]);
        arena::give(local);
        if policy == QuantizePolicy::FinalOnly {
            wire.transmit(&mut data, rng);
        }
        Ok(RankChunk { lo, hi, data })
    }

    /// Ring all-gather of the reduce-scatter result: every rank ends with
    /// the same bits of the full `n`-element reduced vector. This rank
    /// encodes its chunk once (its only RNG draw here) and keeps the
    /// frame's decode; later steps forward received frames unchanged, with
    /// the CRC they arrived with.
    /// The tests pin it bit for bit against the in-proc ring simulator.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring;
    /// [`FrameError::Elements`] if the ranks' vectors differ in length.
    pub fn ring_all_gather(
        &mut self,
        chunk: &RankChunk,
        n: usize,
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<Vec<f32>, TransportError> {
        let (r, w) = (self.rank(), self.world());
        if w == 1 {
            let mut full = arena::take(chunk.data.len());
            full.copy_from_slice(&chunk.data);
            return Ok(full);
        }
        let bounds = chunk_bounds(n, w);
        let (mut frame, mut bytes) = encode_frame(&hop_wire(wire, policy), &chunk.data, rng);
        let (own, _) = decode_frame(&frame).expect("a frame encoded in-process decodes");
        // Every element is written: the `w` chunks tile `[0, n)`.
        let mut full = arena::take(n);
        let (lo, hi) = bounds[(r + 1) % w];
        full[lo..hi].copy_from_slice(&own);
        arena::give(own);
        let (next, prev) = ((r + 1) % w, (r + w - 1) % w);
        // Step `s` receives chunk `r − s`, which step `s + 1` forwards.
        for s in 0..w - 1 {
            self.send_frame(next, frame, bytes)?;
            let (lo, hi) = bounds[(r + w - s) % w];
            let payload;
            (frame, payload, bytes) = self.recv_frame(prev, Some(hi - lo))?;
            full[lo..hi].copy_from_slice(&payload);
            arena::give(payload);
        }
        Ok(full)
    }

    /// Ring all-reduce: reduce-scatter followed by all-gather. Returns this
    /// rank's copy of the reduced vector, taken from the [`arena`]: inside a
    /// training step, hand it back with [`arena::give`] once consumed.
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
        let full = self.ring_all_gather(&chunk, grad.len(), wire, policy, rng);
        arena::give(chunk.data);
        full
    }
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
pub(crate) type RankRunOutcome = (Vec<f64>, Option<TransportError>);

/// One rank's synchronous data-parallel training loop: up to `steps` steps
/// of `trainer`, each all-reducing every parameter gradient through `wire`
/// (then averaging) before clipping and the optimizer update. Both fabrics
/// drive this one loop, with or without faults. A transport failure
/// mid-step rolls that step back
/// ([`Trainer::try_train_step_with_grad_hook`]) and ends the loop. Each
/// step's wire randomness is [`step_comm_rng`]'s.
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
                        arena::give(sum);
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

/// The index of the root cause among the failures a mesh reported: the
/// first that is not a cascade, else the first (every rank saw only the
/// cascade); `None` when nothing failed. Every driver attributes failures
/// by it, judging each by its [`FailureClass`].
pub(crate) fn root_cause<T>(failures: &[T], is_cascade: impl Fn(&T) -> bool) -> Option<usize> {
    let primary = failures.iter().position(|f| !is_cascade(f));
    primary.or((!failures.is_empty()).then_some(0))
}

/// Panics with the root cause among a fault-free run's typed errors, if any
/// rank failed: `"{what} failed: {error}"`.
fn expect_no_failure<'a>(what: &str, errors: impl Iterator<Item = &'a TransportError>) {
    let errors: Vec<_> = errors.collect();
    if let Some(root) = root_cause(&errors, |e| e.is_cascade()) {
        panic!("{what} failed: {}", errors[root]);
    }
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
/// traffic: the sum of every rank endpoint's own [`TransportStats`].
///
/// # Panics
///
/// Panics if `world` is zero or any rank thread panics. A panicking rank's
/// panic is caught, then its endpoint is dropped, which closes its links:
/// peers blocked mid-collective observe [`TransportError::PeerClosed`] and
/// fail fast instead of deadlocking on a hop that will never arrive. The
/// propagated panic is the root cause, judged by the [`FailureClass`] of
/// each panicked rank's recorded error, not a bystander's cascade panic.
pub fn run_ranks<T, F>(world: usize, chaos: Option<&ChaosPlan>, f: F) -> (Vec<T>, TransportStats)
where
    T: Send,
    F: Fn(&mut Endpoint<ChaosFabric<ChannelFabric>>) -> T + Send + Sync,
{
    let plan = chaos.cloned().unwrap_or_else(|| ChaosPlan::none(0));
    let mut stats = TransportStats::new(world);
    let results = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = channel_mesh(world, plan.recv_deadline())
            .into_iter()
            .map(|fabric| {
                let mut ep = Endpoint::new(ChaosFabric::new(fabric, plan.clone()));
                scope.spawn(move || {
                    let output = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ep)));
                    (output, ep.stats, FailureClass::of(ep.failure.as_ref()))
                })
            })
            .collect();
        let mut outputs = Vec::with_capacity(world);
        let mut panics = Vec::new();
        for h in handles {
            let (output, rank_stats, class) = h.join().expect("rank panics are caught in the rank");
            stats
                .merge(&rank_stats)
                .expect("every rank's ledger has the mesh's shape");
            match output {
                Ok(v) => outputs.push(v),
                Err(payload) => panics.push((payload, class)),
            }
        }
        // The root cause, not a bystander's cascade panic: one rank's real
        // failure makes every peer blocked on it panic with a secondary
        // PeerClosed unwrap.
        match root_cause(&panics, |(_, class)| class.is_cascade()) {
            Some(root) => Err(panics.swap_remove(root).0),
            None => Ok(outputs),
        }
    });
    publish_transport_stats(&stats);
    match results {
        Ok(results) => (results, stats),
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Runs a full threaded all-reduce with one gradient vector and one RNG
/// stream per rank: [`run_ranks`] over [`Endpoint::ring_all_reduce`].
/// Returns what the driver does — every rank's reduced vector, in rank
/// order, and the measured traffic.
///
/// # Panics
///
/// Panics if `grads` is empty or `rngs.len()` differs, or with the
/// root-cause [`TransportError`] if the collective fails mid-ring
/// (gradients of different lengths fail it).
pub fn threaded_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &[Rng],
) -> (Vec<Vec<f32>>, TransportStats) {
    assert_eq!(rngs.len(), grads.len(), "need one RNG stream per rank");
    let (outcomes, stats) = run_ranks(grads.len(), None, |ep| {
        let mut rng = rngs[ep.rank()].clone();
        ep.ring_all_reduce(&grads[ep.rank()], wire, policy, &mut rng)
    });
    expect_no_failure(
        "threaded all-reduce",
        outcomes.iter().filter_map(|o| o.as_ref().err()),
    );
    (outcomes.into_iter().flatten().collect(), stats)
}

/// Synchronous data-parallel training over the threaded transport: each
/// trainer runs on its own rank thread, and every step all-reduces every
/// parameter gradient through `wire` (then averages), so the optimizer on
/// each rank updates from the same reduced gradient a ZeRO-style DP run
/// would see. `chaos` injects a fault schedule (`None` runs calm).
///
/// Every rank returns its losses and the first transport error it met, if
/// any; trainers come back in whatever state they reached — failed steps
/// rolled back, completed steps kept — so a caller can inspect, resume or
/// retry.
///
/// Wire randomness is `step_comm_rng`'s, as in every DP entry point, so
/// [`proc::proc_data_parallel_train`] and the recovery driver reproduce
/// this run bit for bit.
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
    let errors = outcomes.iter().filter_map(|(_, e)| e.as_ref());
    expect_no_failure("data-parallel all-reduce", errors);
    let losses = outcomes.into_iter().map(|(losses, _)| losses).collect();
    (trainers, losses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::codec_wire_bytes;
    use crate::support::{exact_sum, oracle_hop, ring_reduce_scatter};
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
        // Against the hop's independent reference: the frame decodes to
        // the codec's dense oracle and counts the analytic volume.
        let payload: Vec<f32> = (0..37).map(|i| (i as f32 - 15.0) * 0.23).collect();
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let mut enc_rng = Rng::seed_from(11);
            let mut ref_rng = Rng::seed_from(11);
            let (frame, bytes) = encode_frame(&wire, &payload, &mut enc_rng);
            let reference = oracle_hop(&wire, &payload, &mut ref_rng);
            let analytic = wire.codec().map_or(4 * payload.len() as u64, |codec| {
                codec_wire_bytes(codec, 1, payload.len(), wire.bits())
            });
            assert_eq!(bytes, analytic, "{}", wire.label());
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
                let oracle = ring_reduce_scatter(&grads, &wire, policy, &mut oracle_rngs);
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
    fn merge_rejects_reports_of_another_shape() {
        // A worker's RESULT carries its ledger as JSON; a forged one must be
        // a typed rejection, never an index panic in the launcher.
        let mut merged = TransportStats::new(2);
        let mut other_world = TransportStats::new(3);
        other_world.tx[4].record(8, 4);
        assert!(merged.merge(&other_world).is_err());
        let mut short_tx = TransportStats::new(2);
        short_tx.tx.pop();
        assert!(merged.merge(&short_tx).is_err());
        let mut long_rx = TransportStats::new(2);
        long_rx.rx.push(LinkCount::default());
        assert!(merged.merge(&long_rx).is_err());
        assert_eq!(
            merged,
            TransportStats::new(2),
            "a rejected report adds nothing"
        );

        let mut rank0 = TransportStats::new(2);
        rank0.tx[1].record(8, 4);
        let mut rank1 = TransportStats::new(2);
        rank1.rx[1].record(8, 4);
        merged.merge(&rank0).expect("same mesh");
        assert_eq!(merged.disagreement(), Some((0, 1)));
        merged.merge(&rank1).expect("same mesh");
        assert_eq!(merged.disagreement(), None);
        assert!(merged.two_sided());
        assert_eq!(merged.link_payload_bytes(0, 1), 8);
    }

    #[test]
    fn p2p_send_recv_round_trips_packed_payloads() {
        let payload: Vec<f32> = (0..29).map(|i| i as f32 * 0.4 - 5.0).collect();
        let expect = oracle_hop(&Wire::fp4(8), &payload, &mut Rng::seed_from(1));
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
    fn bf16_frames_keep_nan_a_nan() {
        // A NaN whose payload sits only in the low 16 bits must not arrive
        // as ±Inf; payload bits are exempt.
        let payload = [
            f32::from_bits(0x7F80_0001),
            f32::from_bits(0xFF80_0001),
            1.5,
        ];
        let (outputs, _) = run_ranks(2, None, |ep| {
            if ep.rank() == 0 {
                let mut rng = Rng::seed_from(1);
                ep.send(1, &payload, &Wire::bf16(), &mut rng).unwrap();
                Vec::new()
            } else {
                ep.recv(0).unwrap()
            }
        });
        let got = &outputs[1];
        assert!(
            got[0].is_nan() && got[0].is_sign_positive(),
            "{:#x}",
            got[0].to_bits()
        );
        assert!(
            got[1].is_nan() && got[1].is_sign_negative(),
            "{:#x}",
            got[1].to_bits()
        );
        assert_eq!(got[2], 1.5);
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
        for rank in &result {
            for (got, want) in rank.iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    /// The text of the panic [`run_ranks`] propagates when running `f`.
    fn propagated_panic<T: Send + std::fmt::Debug>(
        world: usize,
        chaos: Option<&ChaosPlan>,
        f: impl Fn(&mut Endpoint<ChaosFabric<ChannelFabric>>) -> T + Send + Sync,
    ) -> String {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| run_ranks(world, chaos, f)));
        let payload = result.expect_err("panic must propagate, not deadlock");
        let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
        text.or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    }

    #[test]
    fn panicking_rank_aborts_the_mesh_instead_of_deadlocking() {
        // Rank 1 dies before sending; ranks 0 and 2 are blocked waiting on
        // it. Its links close during unwind, so peers observe PeerClosed
        // and fail fast — the whole call panics (propagated by run_ranks)
        // rather than hanging forever.
        let text = propagated_panic(3, None, |ep| {
            let mut rng = Rng::seed_from(1);
            if ep.rank() == 1 {
                panic!("rank 1 exploded");
            }
            ep.send((ep.rank() + 1) % 3, &[1.0], &Wire::exact(), &mut rng)
                .unwrap();
            ep.recv(1).unwrap()
        });
        // The propagated panic is the root cause, not a peer's cascade.
        assert!(
            text.contains("rank 1 exploded"),
            "got panic payload {text:?}"
        );
    }

    #[test]
    fn the_propagated_panic_is_judged_by_the_recorded_error_not_its_text() {
        // Every rank unwraps an all-reduce in which rank 1 is killed: the
        // kill drops rank 1's links before its own closure panics, so its
        // peers' cascade panics may come first.
        let plan = ChaosPlan::kill(3, 1, 1);
        let text = propagated_panic(3, Some(&plan), |ep| {
            let mut rng = Rng::seed_from(ep.rank() as u64);
            let grad = [ep.rank() as f32; 12];
            ep.ring_all_reduce(&grad, &Wire::exact(), QuantizePolicy::EveryHop, &mut rng)
                .unwrap()
        });
        assert!(text.contains("Killed { rank: 1 }"), "got {text:?}");
        // A primary panic whose text reads like a cascade, behind the real
        // cascade of the rank blocked on it.
        let text = propagated_panic(2, None, |ep| {
            if ep.rank() == 1 {
                panic!("rank 1 timed out after 5 s waiting for its input");
            }
            ep.recv(1).unwrap()
        });
        assert!(text.starts_with("rank 1 timed out after"), "got {text:?}");
    }

    #[test]
    fn threaded_all_reduce_panics_with_the_typed_root_cause() {
        // Gradients of different lengths fail both ranks with a typed frame
        // error; the panic names the first, in its display wording.
        let grads = [vec![1.0f32; 10], vec![1.0; 12]];
        let rngs = [Rng::seed_from(0), Rng::seed_from(1)];
        let wire = Wire::exact();
        let result = std::panic::catch_unwind(|| {
            threaded_all_reduce(&grads, &wire, QuantizePolicy::EveryHop, &rngs)
        });
        let payload = result.expect_err("a mismatched ring fails");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("threaded all-reduce failed: corrupt frame from rank 1: 6 elements for a chunk of 5")
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
    fn each_failure_class_has_one_counter_and_one_cascade_rule() {
        let every_variant = [
            TransportError::PeerClosed { rank: 1 },
            TransportError::Frame {
                src: 0,
                error: FrameError::Elements { expect: 4, got: 3 },
            },
            TransportError::Stream {
                src: 2,
                error: snip_quant::StreamError::Crc { expect: 1, got: 2 },
            },
            TransportError::Timeout {
                src: 3,
                elapsed: std::time::Duration::from_millis(1500),
            },
            TransportError::Killed { rank: 0 },
            TransportError::Io {
                rank: 1,
                message: "broken pipe".into(),
            },
        ];
        use FailureClass::*;
        let classes: Vec<_> = every_variant
            .iter()
            .map(|e| FailureClass::of(Some(e)))
            .collect();
        assert_eq!(classes, [PeerClosed, Frame, Frame, Timeout, Killed, Io]);
        assert_eq!(FailureClass::of(None), Task, "no recorded error");
        assert_eq!(
            FailureClass::ALL.map(FailureClass::counter),
            [
                Some("transport.peer_closed"),
                Some("transport.frame_error"),
                Some("transport.timeout"),
                Some("transport.killed"),
                Some("transport.io_error"),
                None, // a task failure is not a transport failure
            ]
        );
        for (byte, class) in FailureClass::ALL.into_iter().enumerate() {
            assert_eq!(
                class as usize, byte,
                "{class:?}: ALL is indexed by discriminant"
            );
        }
        let cascades = every_variant.iter().filter(|e| e.is_cascade()).count();
        assert_eq!(cascades, 2, "PeerClosed and Timeout, nothing else");
        let picked = |errors: &[TransportError]| root_cause(errors, TransportError::is_cascade);
        assert_eq!(picked(&every_variant), Some(1), "the first primary fault");
        assert_eq!(
            picked(&[every_variant[3].clone(), every_variant[0].clone()]),
            Some(0)
        );
        assert_eq!(picked(&[]), None);
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
}
