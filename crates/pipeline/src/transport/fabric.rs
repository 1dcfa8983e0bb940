//! Byte-level rank fabrics — the transport's backend extension point.
//!
//! [`super::Endpoint`] owns everything *semantic* about rank communication:
//! payload quantization, frame encode/decode, ring schedules, payload vs
//! envelope accounting. What it delegates is the *mechanical* part — moving
//! an opaque byte frame from one rank to another — and that is the
//! [`Fabric`] trait: a full mesh of per-link FIFO byte channels.
//!
//! **To add a transport backend, implement [`Fabric`]** and hand the
//! implementation to [`super::Endpoint::new`]; [`ChannelFabric`] and
//! [`super::proc::SocketFabric`] ship today (see the [transport docs](super)).
//!
//! Both share one failure model: **a closed link is the abort signal**.
//! There is no in-band abort broadcast — when a rank dies, its fabric is
//! dropped, which closes every link it owns (channel senders disconnect,
//! sockets deliver EOF after their buffered frames), and each peer blocked
//! on that rank observes [`TransportError::PeerClosed`]. The error cascades
//! along whatever links ranks are actually waiting on, so the whole mesh
//! fails fast instead of deadlocking — the same semantics TCP gives a real
//! collective runtime for free. A peer that is alive but stalled is a
//! [`TransportError::Timeout`] after the fabric's recv deadline, and the
//! drivers judge every failed rank by its [`FailureClass`].

use super::frame::{Frame, FrameError};
use snip_quant::StreamError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Default bound on how long a `recv_frame` waits for a stalled peer before
/// failing with [`TransportError::Timeout`]. Generous enough for any
/// in-repo collective; small enough that a wedged rank becomes a diagnosed
/// error instead of an indefinite hang.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(120);

/// A transport-level failure observed by one rank.
#[derive(Clone, Debug, PartialEq)]
pub enum TransportError {
    /// A peer's link closed mid-collective (the peer panicked, exited, or
    /// dropped its endpoint). This is the abort-propagation signal.
    PeerClosed {
        /// The peer whose link closed.
        rank: usize,
    },
    /// A peer delivered a structurally invalid payload frame.
    Frame {
        /// The sending peer.
        src: usize,
        /// What was wrong with the frame.
        error: FrameError,
    },
    /// A peer's byte stream itself was damaged (bad length prefix, stream
    /// cut mid-frame, checksum mismatch).
    Stream {
        /// The sending peer.
        src: usize,
        /// The stream-layer defect.
        error: StreamError,
    },
    /// No frame arrived from a peer within the recv deadline — the peer is
    /// alive (its link is open) but stalled. Distinct from
    /// [`TransportError::PeerClosed`]: the link did *not* close.
    Timeout {
        /// The peer the rank was waiting on.
        src: usize,
        /// How long the rank actually waited.
        elapsed: Duration,
    },
    /// This rank was killed by its chaos schedule (fault injection only —
    /// real deployments observe the *peer-side* [`TransportError::PeerClosed`]
    /// cascade instead).
    Killed {
        /// The rank that was killed.
        rank: usize,
    },
    /// An OS-level I/O failure on a link.
    Io {
        /// The peer on the failing link.
        rank: usize,
        /// Stringified `std::io::Error`.
        message: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { rank } => {
                write!(f, "rank {rank} closed its link mid-collective")
            }
            TransportError::Frame { src, error } => {
                write!(f, "corrupt frame from rank {src}: {error}")
            }
            TransportError::Stream { src, error } => {
                write!(f, "damaged stream from rank {src}: {error}")
            }
            TransportError::Timeout { src, elapsed } => {
                write!(
                    f,
                    "timed out after {:.3}s waiting for a frame from rank {src}",
                    elapsed.as_secs_f64()
                )
            }
            TransportError::Killed { rank } => {
                write!(f, "rank {rank} was killed by its chaos schedule")
            }
            TransportError::Io { rank, message } => {
                write!(f, "i/o failure on the link to rank {rank}: {message}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// `true` for `PeerClosed` and `Timeout`, the errors a primary fault
    /// induces at the ranks waiting on it ([`FailureClass::is_cascade`]).
    pub(crate) fn is_cascade(&self) -> bool {
        FailureClass::of(Some(self)).is_cascade()
    }
}

/// What stopped a rank: the class of the first [`TransportError`] its
/// endpoint recorded ([`FailureClass::of`], the one map from an error to
/// its class), or [`FailureClass::Task`] when it recorded none. Both mesh
/// drivers attribute root causes and count failures by the class alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// [`TransportError::PeerClosed`].
    PeerClosed,
    /// [`TransportError::Frame`] or [`TransportError::Stream`].
    Frame,
    /// [`TransportError::Timeout`].
    Timeout,
    /// [`TransportError::Killed`].
    Killed,
    /// [`TransportError::Io`].
    Io,
    /// No transport error: the task itself failed (a bad configuration, a
    /// panic), or a process worker died without a report.
    Task,
}

impl FailureClass {
    /// Every class, indexed by its discriminant (`class as u8`, its byte in
    /// a worker's `ERROR` report).
    pub(crate) const ALL: [FailureClass; 6] = [
        FailureClass::PeerClosed,
        FailureClass::Frame,
        FailureClass::Timeout,
        FailureClass::Killed,
        FailureClass::Io,
        FailureClass::Task,
    ];

    /// The class of a rank whose endpoint recorded `error` first.
    pub fn of(error: Option<&TransportError>) -> FailureClass {
        match error {
            Some(TransportError::PeerClosed { .. }) => FailureClass::PeerClosed,
            Some(TransportError::Frame { .. } | TransportError::Stream { .. }) => {
                FailureClass::Frame
            }
            Some(TransportError::Timeout { .. }) => FailureClass::Timeout,
            Some(TransportError::Killed { .. }) => FailureClass::Killed,
            Some(TransportError::Io { .. }) => FailureClass::Io,
            None => FailureClass::Task,
        }
    }

    /// `true` when the failure is *secondary*: the cascade a primary fault
    /// (kill, corruption, a task failure) induces at the ranks that were
    /// merely waiting on the faulted one — a consequence, not a cause.
    pub fn is_cascade(self) -> bool {
        matches!(self, FailureClass::PeerClosed | FailureClass::Timeout)
    }

    /// The `snip-obs` counter a failure of this class bumps; none for
    /// [`FailureClass::Task`], which is not a transport failure.
    pub(crate) fn counter(self) -> Option<&'static str> {
        Some(match self {
            FailureClass::PeerClosed => "transport.peer_closed",
            FailureClass::Frame => "transport.frame_error",
            FailureClass::Timeout => "transport.timeout",
            FailureClass::Killed => "transport.killed",
            FailureClass::Io => "transport.io_error",
            FailureClass::Task => return None,
        })
    }
}

/// A full mesh of per-link FIFO byte channels connecting `world` ranks.
///
/// Implementations guarantee: frames from `src` to `dst` arrive complete,
/// uncorrupted (or surface a typed error) and in send order; distinct links
/// never interleave their frames; and dropping a rank's fabric closes all
/// of its links, which peers observe as [`TransportError::PeerClosed`]
/// after draining any frames already in flight.
pub trait Fabric {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Number of ranks in the mesh.
    fn world(&self) -> usize;

    /// Ships one frame, with the CRC its writer took, to `dst`. Returns the
    /// total wire bytes moved — the frame plus any per-frame transport
    /// overhead (e.g. a stream envelope, which carries that CRC), so callers
    /// can account envelope bytes honestly per backend.
    fn send_frame(&mut self, dst: usize, frame: Frame) -> Result<u64, TransportError>;

    /// Blocks for the next frame from `src` (per-link FIFO). Returns the
    /// frame, with the CRC it was sent with, and the wire bytes it
    /// occupied. Waits at most the recv deadline the fabric was built with
    /// ([`DEFAULT_RECV_DEADLINE`] unless a chaos plan lowers it) before
    /// failing with [`TransportError::Timeout`].
    fn recv_frame(&mut self, src: usize) -> Result<(Frame, u64), TransportError>;
}

/// The in-process backend: ranks on OS threads, one unbounded mpsc channel
/// per directed link. The channel *is* the link: a dropped fabric's
/// `Sender`s disconnect, exactly mirroring socket EOF.
pub struct ChannelFabric {
    rank: usize,
    world: usize,
    /// `senders[dst]` — this rank's exclusive sending half of link
    /// `rank → dst`.
    senders: Vec<Sender<Frame>>,
    /// `receivers[src]` — the receiving half of link `src → rank`.
    receivers: Vec<Receiver<Frame>>,
    /// Longest a `recv_frame` waits before reporting a stalled peer.
    deadline: Duration,
}

/// Builds the `world × world` channel mesh, returning one fabric per rank
/// (in rank order) whose receives wait at most `deadline` for a frame.
///
/// # Panics
///
/// Panics if `world` is zero.
pub fn channel_mesh(world: usize, deadline: Duration) -> Vec<ChannelFabric> {
    assert!(world > 0, "need at least one rank");
    // Link `src → dst` is one channel: `src` keeps its sender, `dst` its
    // receiver, which lands at index `src` because sources come in order.
    let mut receivers: Vec<Vec<Receiver<Frame>>> = (0..world).map(|_| Vec::new()).collect();
    let senders: Vec<Vec<Sender<Frame>>> = (0..world)
        .map(|_| {
            let link = |dst: usize| {
                let (tx, rx) = channel();
                receivers[dst].push(rx);
                tx
            };
            (0..world).map(link).collect()
        })
        .collect();
    senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (senders, receivers))| ChannelFabric {
            rank,
            world,
            senders,
            receivers,
            deadline,
        })
        .collect()
}

impl Fabric for ChannelFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(&mut self, dst: usize, frame: Frame) -> Result<u64, TransportError> {
        let wire = frame.len() as u64;
        self.senders[dst]
            .send(frame)
            .map_err(|_| TransportError::PeerClosed { rank: dst })?;
        Ok(wire)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Frame, u64), TransportError> {
        let start = Instant::now();
        let frame = self.receivers[src]
            .recv_timeout(self.deadline)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout {
                    src,
                    elapsed: start.elapsed(),
                },
                RecvTimeoutError::Disconnected => TransportError::PeerClosed { rank: src },
            })?;
        let wire = frame.len() as u64;
        Ok((frame, wire))
    }
}
