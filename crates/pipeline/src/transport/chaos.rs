//! Deterministic fault injection for the multi-rank transport.
//!
//! [`ChaosFabric`] decorates any [`Fabric`] backend and injects faults from
//! a seeded [`ChaosPlan`] — the *same* decorator wraps the threaded
//! [`super::ChannelFabric`] and the process [`super::proc::SocketFabric`], so one
//! fault schedule exercises both backends and must surface the **same
//! typed error at the same rank** on each. Five fault classes ship:
//!
//! * [`Fault::Kill`] — the fabric drops its inner backend at a scheduled
//!   transport operation, closing every link the rank owns. The killed
//!   rank observes the sticky [`TransportError::Killed`]; peers observe
//!   the ordinary [`TransportError::PeerClosed`] cascade, exactly as if
//!   the process had died.
//! * [`Fault::Delay`] — a bounded, seed-deterministic sender-side stall
//!   before each frame on one link. Delays never reorder frames (the
//!   sleep happens *before* the FIFO send), so a delay-only plan changes
//!   wall-clock time and nothing else: results, RNG streams and byte
//!   counters stay bit-identical.
//! * [`Fault::Truncate`] — one scheduled frame on one link is cut
//!   mid-stream. Surfaces as [`TransportError::Stream`] carrying
//!   [`snip_quant::StreamError::Truncated`]; the link is dead afterwards.
//! * [`Fault::Corrupt`] — one scheduled frame has a payload byte flipped
//!   in flight. The stream envelope's CRC32 catches it:
//!   [`TransportError::Stream`] carrying
//!   [`snip_quant::StreamError::Crc`]; the link is dead afterwards.
//! * [`Fault::Close`] — one directed link closes after a scheduled number
//!   of frames; both ends observe [`TransportError::PeerClosed`] at the
//!   same frame index, since each end enforces the schedule locally.
//!
//! Everything is a pure function of the plan's seed and the fabric's own
//! operation counters — no wall clock, no OS randomness — so a failing
//! chaos run replays bit-for-bit under a debugger. The dual contract is
//! pinned by `tests/chaos_harness.rs`:
//!
//! 1. **Fault-free transparency**: a plan with no faults is a pure
//!    passthrough — gradients, RNG streams and both-sided payload
//!    counters are bit-identical to the undecorated fabric.
//! 2. **Typed failure, bounded unwind**: every injected fault produces
//!    its documented [`TransportError`] at the faulted rank, and every
//!    surviving rank unwinds with a typed cascade error within the recv
//!    deadline — never a deadlock, never a panic from transport code.
//!
//! # Worked example: kill a rank mid-collective
//!
//! A plan is an argument of the two mesh drivers — [`super::run_ranks`] on
//! threads, [`super::proc::launch`] on processes — which wrap every rank's
//! fabric in a [`ChaosFabric`]:
//!
//! ```
//! use snip_pipeline::collective::{QuantizePolicy, Wire};
//! use snip_pipeline::transport::{run_ranks, ChaosPlan, TransportError};
//! use snip_tensor::rng::Rng;
//!
//! let grads: Vec<Vec<f32>> = (0..3).map(|r| vec![r as f32; 8]).collect();
//! // Rank 1 dies at its very first transport operation.
//! let plan = ChaosPlan::kill(0xC0FFEE, 1, 0);
//! let (outcomes, _) = run_ranks(3, Some(&plan), |ep| {
//!     let mut rng = Rng::seed_from(ep.rank() as u64);
//!     ep.ring_all_reduce(&grads[ep.rank()], &Wire::exact(), QuantizePolicy::EveryHop, &mut rng)
//! });
//! // The faulted rank knows exactly what happened to it...
//! assert_eq!(outcomes[1], Err(TransportError::Killed { rank: 1 }));
//! // ...and the survivors unwind with typed cascade errors, not hangs.
//! assert!(outcomes[0].is_err() && outcomes[2].is_err());
//! ```

use super::fabric::{Fabric, TransportError};
use super::{root_cause, try_data_parallel_train};
use crate::collective::{QuantizePolicy, Wire};
use serde::{Deserialize, Serialize};
use snip_core::Trainer;
use snip_quant::{
    stream_frame, StreamDecoder, STREAM_CRC_BYTES, STREAM_ENVELOPE_BYTES, STREAM_PREFIX_BYTES,
};
use std::time::Duration;

/// One scheduled fault. Ranks, links and frame indices are all explicit,
/// so a plan reads as a script: *this* link loses *this* frame, *this*
/// rank dies at *this* operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// `rank` drops its fabric when its combined send+recv operation
    /// counter reaches `op`, closing every link it owns. The rank itself
    /// observes the sticky [`TransportError::Killed`]; peers observe
    /// [`TransportError::PeerClosed`] once in-flight frames drain.
    Kill {
        /// The rank to kill.
        rank: usize,
        /// The 0-based transport operation (sends and recvs both count)
        /// at which the kill fires.
        op: u64,
    },
    /// Every frame on the directed link `src → dst` is delayed by a
    /// seed-deterministic duration in `[0, max_micros]` before the send.
    /// FIFO-preserving by construction: the stall happens on the sender's
    /// thread before the frame enters the link.
    Delay {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Upper bound (inclusive) on the injected delay, microseconds.
        max_micros: u64,
    },
    /// The `frame`-th frame (0-based) on `src → dst` is cut mid-stream at
    /// a seed-chosen byte. The receiver observes
    /// [`snip_quant::StreamError::Truncated`] inside
    /// [`TransportError::Stream`] and the link is dead afterwards.
    Truncate {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// 0-based index of the frame to damage.
        frame: u64,
    },
    /// The `frame`-th frame (0-based) on `src → dst` has one
    /// seed-chosen payload byte XOR-flipped in flight. The envelope CRC
    /// catches it: [`snip_quant::StreamError::Crc`] inside
    /// [`TransportError::Stream`]; the link is dead afterwards.
    Corrupt {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// 0-based index of the frame to damage.
        frame: u64,
    },
    /// The directed link `src → dst` closes after `after_frames` frames
    /// have moved: the sender's next send and the receiver's next recv
    /// both fail with [`TransportError::PeerClosed`]. Each end enforces
    /// the count locally, so the two views agree exactly.
    Close {
        /// Sending rank.
        src: usize,
        /// Receiving rank.
        dst: usize,
        /// Frames allowed through before the link dies.
        after_frames: u64,
    },
}

/// A deterministic fault schedule: a seed (feeding every in-fault random
/// choice — delay durations, cut points, flipped bytes) plus the fault
/// list, and optionally a recv deadline override so tests can bound the
/// survivors' unwind time. Serializable, so the process launcher ships
/// plans to workers inside the task spec.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seeds every in-fault random choice. Two runs with the same plan
    /// make identical choices.
    pub seed: u64,
    /// The scheduled faults. Empty means pure passthrough.
    pub faults: Vec<Fault>,
    /// When set, building a [`ChaosFabric`] lowers the inner fabric's recv
    /// deadline to this many microseconds (see
    /// [`super::fabric::DEFAULT_RECV_DEADLINE`] for the default).
    pub recv_deadline_micros: Option<u64>,
}

impl ChaosPlan {
    /// The empty schedule: a decorated fabric behaves bit-identically to
    /// the bare one.
    pub fn none(seed: u64) -> Self {
        ChaosPlan {
            seed,
            faults: Vec::new(),
            recv_deadline_micros: None,
        }
    }

    /// Kill `rank` at its `op`-th transport operation.
    pub fn kill(seed: u64, rank: usize, op: u64) -> Self {
        ChaosPlan {
            seed,
            faults: vec![Fault::Kill { rank, op }],
            recv_deadline_micros: None,
        }
    }

    /// Close the directed link `src → dst` after `after_frames` frames.
    pub fn close_link(seed: u64, src: usize, dst: usize, after_frames: u64) -> Self {
        ChaosPlan {
            seed,
            faults: vec![Fault::Close {
                src,
                dst,
                after_frames,
            }],
            recv_deadline_micros: None,
        }
    }

    /// Truncate the `frame`-th frame on `src → dst` mid-stream.
    pub fn truncate(seed: u64, src: usize, dst: usize, frame: u64) -> Self {
        ChaosPlan {
            seed,
            faults: vec![Fault::Truncate { src, dst, frame }],
            recv_deadline_micros: None,
        }
    }

    /// Flip one payload byte of the `frame`-th frame on `src → dst`.
    pub fn corrupt(seed: u64, src: usize, dst: usize, frame: u64) -> Self {
        ChaosPlan {
            seed,
            faults: vec![Fault::Corrupt { src, dst, frame }],
            recv_deadline_micros: None,
        }
    }

    /// Delay every directed link of a `world`-rank mesh by up to
    /// `max_micros` per frame — the "slow network, nothing broken"
    /// schedule. Results must stay bit-identical to a calm run.
    pub fn delay_all_links(seed: u64, world: usize, max_micros: u64) -> Self {
        let mut faults = Vec::new();
        for src in 0..world {
            for dst in 0..world {
                if src != dst {
                    faults.push(Fault::Delay {
                        src,
                        dst,
                        max_micros,
                    });
                }
            }
        }
        ChaosPlan {
            seed,
            faults,
            recv_deadline_micros: None,
        }
    }

    /// Lower the recv deadline for fabrics run under this plan.
    pub fn with_recv_deadline(mut self, deadline: Duration) -> Self {
        self.recv_deadline_micros = Some(deadline.as_micros() as u64);
        self
    }

    /// `true` when the plan injects nothing — the passthrough contract
    /// applies.
    pub fn is_passthrough(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Splitmix64-style mixer: every in-fault random choice (delay duration,
/// cut point, flipped byte) is `mix(plan.seed, …counters…)`, a pure
/// function of the plan and the fabric's own operation counts.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fault-injecting decorator over any [`Fabric`] backend.
///
/// With an empty plan it is a transparent proxy: every call forwards to
/// the inner fabric and every counter matches the undecorated run. With
/// faults scheduled, it applies them deterministically from the plan seed
/// and its own per-link frame counters — see the [module docs](self) for
/// the fault classes and the worked example.
pub struct ChaosFabric<F: Fabric> {
    /// `None` once a [`Fault::Kill`] has fired: dropping the inner fabric
    /// closes every link this rank owns, which is precisely how a real
    /// rank death looks to the peers.
    inner: Option<F>,
    rank: usize,
    world: usize,
    plan: ChaosPlan,
    /// Combined send+recv operation counter — the clock [`Fault::Kill`]
    /// fires on.
    op: u64,
    /// Frames sent per destination (indexes [`Fault::Delay`] /
    /// [`Fault::Close`] on the tx side).
    sent: Vec<u64>,
    /// Frames received per source (indexes [`Fault::Truncate`] /
    /// [`Fault::Corrupt`] / [`Fault::Close`] on the rx side).
    recvd: Vec<u64>,
    /// The sticky error a killed fabric keeps returning.
    dead: Option<TransportError>,
    /// Links this rank can no longer send on ([`Fault::Close`]).
    closed_tx: Vec<bool>,
    /// Links this rank can no longer receive on ([`Fault::Close`], or a
    /// damage fault already fired on them).
    closed_rx: Vec<bool>,
}

impl<F: Fabric> ChaosFabric<F> {
    /// Decorates `inner` with `plan`'s fault schedule, applying the plan's
    /// recv-deadline override if it has one.
    pub fn new(mut inner: F, plan: ChaosPlan) -> Self {
        let (rank, world) = (inner.rank(), inner.world());
        if let Some(micros) = plan.recv_deadline_micros {
            inner.set_recv_deadline(Duration::from_micros(micros));
        }
        ChaosFabric {
            inner: Some(inner),
            rank,
            world,
            plan,
            op: 0,
            sent: vec![0; world],
            recvd: vec![0; world],
            dead: None,
            closed_tx: vec![false; world],
            closed_rx: vec![false; world],
        }
    }

    /// Advances the operation clock and fires a scheduled kill: drops the
    /// inner fabric (closing all links) and makes the error sticky.
    fn tick(&mut self) -> Result<(), TransportError> {
        if let Some(e) = &self.dead {
            return Err(e.clone());
        }
        let at = self.op;
        self.op += 1;
        for fault in &self.plan.faults {
            if let Fault::Kill { rank, op } = fault {
                if *rank == self.rank && at >= *op {
                    // Dropping the fabric is the kill: channel senders
                    // disconnect, sockets close, peers see PeerClosed.
                    self.inner = None;
                    let e = TransportError::Killed { rank: self.rank };
                    self.dead = Some(e.clone());
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Re-envelopes `frame` the way a socket would, applies the scheduled
    /// damage (a mid-stream cut or a single byte flip), and decodes the
    /// damaged stream through the real [`StreamDecoder`] — so the error a
    /// chaos run surfaces is byte-for-byte the error genuine link damage
    /// would produce, on *any* backend. The link is dead afterwards.
    fn damage(&mut self, src: usize, frame: &[u8], truncate: bool) -> TransportError {
        let mut stream = stream_frame(frame);
        let r = mix(
            self.plan.seed,
            (src * self.world + self.rank) as u64,
            self.recvd[src],
            0xBAD,
        );
        if truncate {
            // Cut strictly inside the enveloped frame: 1 ≤ cut < len.
            let cut = 1 + (r as usize) % (stream.len() - 1);
            stream.truncate(cut);
        } else {
            // Flip a body byte (or a CRC byte when the body is empty) —
            // either way the checksum can no longer match.
            let idx = if frame.is_empty() {
                STREAM_PREFIX_BYTES + (r as usize) % STREAM_CRC_BYTES
            } else {
                STREAM_ENVELOPE_BYTES + (r as usize) % frame.len()
            };
            stream[idx] ^= ((r >> 32) as u8) | 1;
        }
        self.closed_rx[src] = true;
        let mut dec = StreamDecoder::new();
        dec.feed(&stream);
        let error = match dec.next_frame() {
            Err(e) => e,
            Ok(Some(_)) => unreachable!("chaos damage always breaks the stream"),
            Ok(None) => match dec.finish() {
                Err(e) => e,
                Ok(()) => unreachable!("chaos damage always breaks the stream"),
            },
        };
        TransportError::Stream { src, error }
    }
}

impl<F: Fabric> Fabric for ChaosFabric<F> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<u64, TransportError> {
        self.tick()?;
        if self.closed_tx[dst] {
            return Err(TransportError::PeerClosed { rank: dst });
        }
        let at = self.sent[dst];
        let mut delay = 0u64;
        for fault in &self.plan.faults {
            match *fault {
                Fault::Close {
                    src,
                    dst: d,
                    after_frames,
                } if src == self.rank && d == dst && at >= after_frames => {
                    self.closed_tx[dst] = true;
                    return Err(TransportError::PeerClosed { rank: dst });
                }
                Fault::Delay {
                    src,
                    dst: d,
                    max_micros,
                } if src == self.rank && d == dst && max_micros > 0 => {
                    let link = (self.rank * self.world + dst) as u64;
                    delay = delay.max(mix(self.plan.seed, link, at, 0xDE1A) % (max_micros + 1));
                }
                _ => {}
            }
        }
        if delay > 0 {
            // Sender-side stall *before* the FIFO send: frames slow down
            // but can never overtake each other.
            std::thread::sleep(Duration::from_micros(delay));
        }
        let inner = self
            .inner
            .as_mut()
            .expect("killed fabrics error in tick() before reaching the backend");
        let wire = inner.send_frame(dst, frame)?;
        self.sent[dst] = at + 1;
        Ok(wire)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Vec<u8>, u64), TransportError> {
        self.tick()?;
        if self.closed_rx[src] {
            return Err(TransportError::PeerClosed { rank: src });
        }
        let at = self.recvd[src];
        for fault in &self.plan.faults {
            if let Fault::Close {
                src: s,
                dst,
                after_frames,
            } = *fault
            {
                if s == src && dst == self.rank && at >= after_frames {
                    self.closed_rx[src] = true;
                    return Err(TransportError::PeerClosed { rank: src });
                }
            }
        }
        let inner = self
            .inner
            .as_mut()
            .expect("killed fabrics error in tick() before reaching the backend");
        let (frame, wire) = inner.recv_frame(src)?;
        self.recvd[src] = at + 1;
        for fault in &self.plan.faults {
            match *fault {
                Fault::Truncate {
                    src: s,
                    dst,
                    frame: idx,
                } if s == src && dst == self.rank && idx == at => {
                    return Err(self.damage(src, &frame, true));
                }
                Fault::Corrupt {
                    src: s,
                    dst,
                    frame: idx,
                } if s == src && dst == self.rank && idx == at => {
                    return Err(self.damage(src, &frame, false));
                }
                _ => {}
            }
        }
        Ok((frame, wire))
    }

    fn set_recv_deadline(&mut self, deadline: Duration) {
        if let Some(inner) = self.inner.as_mut() {
            inner.set_recv_deadline(deadline);
        }
    }
}

/// A completed recovery run: the trainers at their final step, every
/// rank's kept-step losses, and the number of retries spent.
pub type RecoveredRun = (Vec<Trainer>, Vec<Vec<f64>>, usize);

/// Synchronous data-parallel training that survives transport faults:
/// run, and when a fault stops the world, retry from the last good
/// parameter state until `steps` steps are in or `max_retries` attempts
/// are spent.
///
/// Attempt `i` runs under `plans[i]` (fault-free once the list runs out),
/// so tests script "die on the first attempt, recover on the second".
/// After a failed attempt the driver keeps the completed prefix when
/// every rank agrees on its step count, and otherwise rolls all ranks
/// back to the attempt's start — either way each trainer resumes from a
/// bit-exact step boundary, and because wire randomness is keyed to the
/// **absolute** step index (`step_comm_rng`), the retried run
/// replays the exact gradients of an unfaulted run. The final parameters
/// after a kill-and-retry therefore match a calm
/// [`super::data_parallel_train`] bit for bit. The per-attempt snapshot is
/// deliberate: it is the one place a whole-trainer copy is the right
/// price, paid once per attempt rather than once per step.
///
/// Each retry bumps the `transport.retries` counter (when telemetry is
/// on). Returns the trainers, the per-rank losses of every *kept* step,
/// and the number of retries spent.
///
/// # Errors
///
/// The root-cause [`TransportError`] of the last attempt (primary faults
/// preferred over [`super::is_cascade_error`] cascades) once
/// `max_retries` is exhausted.
///
/// # Panics
///
/// Panics if `trainers` is empty or ranks disagree on their starting step
/// count.
pub fn data_parallel_train_with_recovery(
    trainers: Vec<Trainer>,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
    plans: &[ChaosPlan],
    max_retries: usize,
) -> Result<RecoveredRun, TransportError> {
    assert!(!trainers.is_empty(), "no ranks");
    let base = trainers[0].step_count();
    assert!(
        trainers.iter().all(|t| t.step_count() == base),
        "ranks disagree on their starting step count"
    );
    let target = base + steps;
    let world = trainers.len();
    let calm = ChaosPlan::none(0);
    let mut current = trainers;
    let mut losses: Vec<Vec<f64>> = vec![Vec::new(); world];
    let mut retries = 0usize;
    loop {
        let done = current[0].step_count();
        let remaining = target - done;
        let plan = plans.get(retries).unwrap_or(&calm);
        let snapshot = current.clone();
        let (returned, outcomes, _) =
            try_data_parallel_train(current, remaining, wire, policy, comm_seed, Some(plan));
        let errors: Vec<TransportError> = outcomes.iter().filter_map(|(_, e)| e.clone()).collect();
        let Some(root) = root_cause(&errors).cloned() else {
            for (rank, (l, _)) in outcomes.into_iter().enumerate() {
                losses[rank].extend(l);
            }
            return Ok((returned, losses, retries));
        };
        if snip_obs::enabled() {
            snip_obs::counter_add("transport.retries", 1);
        }
        if retries >= max_retries {
            return Err(root);
        }
        retries += 1;
        let reached = returned[0].step_count();
        if returned.iter().all(|t| t.step_count() == reached) {
            // Every rank completed the same step prefix (failed steps were
            // rolled back): keep the progress and its losses.
            for (rank, (l, _)) in outcomes.into_iter().enumerate() {
                losses[rank].extend(l);
            }
            current = returned;
        } else {
            // Ranks diverged mid-attempt — drop the attempt entirely and
            // restart from the snapshot.
            current = snapshot;
        }
    }
}
