//! The multi-**process** transport backend: rank workers connected by
//! Unix-domain sockets.
//!
//! [`super::run_ranks`] puts ranks on OS threads; this module puts them in
//! separate OS processes — the shape the paper's setting actually has
//! (Megatron-style PP/DP workers), where quantized gradients must cross a
//! real byte stream. The rank-facing surface is unchanged: a worker gets an
//! [`Endpoint`] over a [`SocketFabric`] and runs the *same* generic
//! collective/p2p/DP-loop code as the threaded backend, bit for bit.
//!
//! # Launch protocol
//!
//! [`launch`] takes one typed [`Task`] per rank (plus an optional
//! [`ChaosPlan`] every worker applies to its fabric) and spawns `R` workers
//! by **re-executing the current binary** (`std::env::current_exe`) with
//! `SNIP_RANK_*` environment variables naming the fabric directory, the
//! worker's rank and the world size. Any binary that launches a process
//! fabric must therefore call [`worker_boot`] **first thing in `main`**: in
//! a worker process it never returns (it runs the assigned task and exits),
//! in the parent it is a no-op. A worker whose `main` forgot the call
//! refuses to launch a nested fabric, so the mistake surfaces as an error
//! instead of a fork bomb.
//!
//! The handshake, all over Unix sockets in a private temp directory:
//!
//! 1. the parent binds a control listener and spawns the workers;
//! 2. each worker binds its own mesh listener, connects to the control
//!    socket and reports `READY{rank}`;
//! 3. once every rank is ready the parent sends each worker `START` with
//!    the chaos plan and its own encoded [`Task`] (codec + seeds + its own
//!    payload — peers' data never crosses, unlike the threaded closures
//!    that share an address space);
//! 4. workers build the full socket mesh (connect to lower ranks, accept
//!    from higher ranks, each stream prefixed by a 4-byte rank hello), run
//!    the task through [`run_task`], and report `RESULT` (their side of the
//!    per-link counters + the encoded [`TaskOutput`]) or `ERROR`;
//! 5. the parent merges both sides of every link's counters — they must
//!    agree exactly — and reaps the workers.
//!
//! Frames on mesh streams carry [`snip_quant::wire`]'s stream envelope —
//! a length prefix plus a CRC32 of the body, so in-flight corruption is a
//! typed [`snip_quant::StreamError::Crc`] at decode instead of a silently
//! damaged gradient — and are reassembled from arbitrarily chunked reads
//! by a dedicated reader thread per link, which also keeps every socket
//! drained so ring steps can never deadlock on full kernel buffers.
//!
//! # Abort semantics
//!
//! There is no abort message. A worker that panics or exits closes its
//! sockets (its fabric's `Drop` shuts them down explicitly, and process
//! exit closes whatever remains); peers see EOF after the buffered frames —
//! [`TransportError::PeerClosed`] — and the failure cascades through the
//! mesh exactly as it does on threads. The parent reports the root cause
//! from the failing worker's `ERROR` message.
//!
//! # Adding a task
//!
//! One [`Task`] variant, one [`run_task`] arm, one [`TaskOutput`] variant
//! (a variant's line in its `message_enum!` list is also its wire layout).
//! `run_task` is generic over the fabric, so the new task runs over sockets
//! through [`launch`], over channels through
//! `run_ranks(world, chaos, |ep| run_task(ep, &tasks[ep.rank()]))`, and
//! under a chaos plan on either, with nothing else to write. The named
//! `proc_*` helpers below are fault-free delegations that build the tasks
//! and reshape the outputs.

use super::chaos::{ChaosFabric, ChaosPlan};
use super::fabric::{is_cascade_error, Fabric, TransportError, DEFAULT_RECV_DEADLINE};
use super::{dp_train_loop, pipeline_relay, Endpoint, LinkCounters, TransportStats};
use crate::collective::{CollectiveResult, QuantizePolicy, Wire};
use serde::{Deserialize, Serialize};
use snip_core::{Trainer, TrainerConfig};
use snip_quant::{
    stream_body_len, stream_check_body, stream_envelope, stream_frame, StreamDecoder,
    STREAM_ENVELOPE_BYTES,
};
use snip_tensor::rng::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime};

const ENV_WORKER: &str = "SNIP_RANK_WORKER";
const ENV_DIR: &str = "SNIP_RANK_DIR";
const ENV_RANK: &str = "SNIP_RANK_ID";
const ENV_WORLD: &str = "SNIP_RANK_WORLD";
/// Chaos-harness hook: a worker whose rank matches this variable's value
/// exits before reporting READY, simulating a rank that dies during spawn.
/// Public so the chaos harness can set it; unset in normal operation.
pub const ENV_EXIT_BEFORE_READY: &str = "SNIP_CHAOS_EXIT_BEFORE_READY";

/// How long the parent waits for workers to connect and report ready.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the parent waits for a worker's result (covers debug-build DP
/// training loops).
const RESULT_TIMEOUT: Duration = Duration::from_secs(600);
/// How long a worker waits for mesh peers to dial in.
const MESH_TIMEOUT: Duration = Duration::from_secs(120);

// Control-plane message tags.
const MSG_READY: u8 = 1;
const MSG_START: u8 = 2;
const MSG_RESULT: u8 = 3;
const MSG_ERROR: u8 = 4;

/// Everything that can go wrong launching or running a process fabric.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcError {
    /// Spawning or handshaking with the workers failed.
    Launch(String),
    /// A worker reported a task failure (transport error, panic, bad spec).
    Worker {
        /// The failing rank.
        rank: usize,
        /// Its error report.
        message: String,
    },
    /// A worker's control message was malformed.
    Protocol(String),
    /// The sender-side and receiver-side counters of a link disagree —
    /// bytes were lost or double-counted somewhere, which the equivalence
    /// contract forbids.
    AccountingMismatch {
        /// Sending rank of the inconsistent link.
        src: usize,
        /// Receiving rank of the inconsistent link.
        dst: usize,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Launch(m) => write!(f, "launching rank workers failed: {m}"),
            ProcError::Worker { rank, message } => write!(f, "rank {rank} failed: {message}"),
            ProcError::Protocol(m) => write!(f, "malformed worker message: {m}"),
            ProcError::AccountingMismatch { src, dst } => write!(
                f,
                "link {src} → {dst}: sender and receiver counters disagree"
            ),
        }
    }
}

impl std::error::Error for ProcError {}

// ---------------------------------------------------------------------------
// Control-plane framing: length-prefixed messages over a Unix stream.
// ---------------------------------------------------------------------------

fn ctrl_send(stream: &mut UnixStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&stream_frame(body))
}

fn ctrl_recv(stream: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let invalid = |e| {
        std::io::Error::new(
            ErrorKind::InvalidData,
            format!("control frame rejected: {e}"),
        )
    };
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    stream.read_exact(&mut envelope)?;
    let mut body = vec![0u8; stream_body_len(&envelope).map_err(invalid)?];
    stream.read_exact(&mut body)?;
    stream_check_body(&envelope, &body).map_err(invalid)?;
    Ok(body)
}

// ---------------------------------------------------------------------------
// Little-endian buffer helpers for the task/result payloads.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!(
                "message truncated: need {n} more bytes at offset {}",
                self.at
            ));
        };
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|e| format!("index field: {e}"))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(4 * n)?;
        Ok((0..n)
            .map(|i| f32::from_le_bytes(raw[4 * i..4 * i + 4].try_into().expect("4")))
            .collect())
    }

    fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(8 * n)?;
        Ok((0..n)
            .map(|i| f64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8")))
            .collect())
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let raw = self.take(8 * n)?;
        Ok((0..n)
            .map(|i| u64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8")))
            .collect())
    }

    /// A length-prefixed JSON blob — how serde-derived configuration
    /// (codecs, trainer configs, chaos plans) rides inside binary messages.
    fn json<T: Deserialize>(&mut self) -> Result<T, String> {
        let len = self.u32()? as usize;
        serde_json::from_slice(self.take(len)?).map_err(|e| format!("embedded json: {e:?}"))
    }

    /// Everything not yet consumed.
    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.at..];
        self.at = self.buf.len();
        slice
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "message has {} trailing bytes",
                self.buf.len() - self.at
            ))
        }
    }
}

/// The write side of [`Cursor`]: each method appends what the cursor method
/// of the same name reads back. Methods take references so the
/// [`message_enum!`] encoders can pass borrowed fields straight through.
struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: &u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: &usize) {
        self.u64(&(*v as u64));
    }

    fn json<T: Serialize>(&mut self, v: &T) {
        let json = serde_json::to_vec(v).expect("config types serialize");
        self.u32(json.len() as u32);
        self.0.extend_from_slice(&json);
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Tasks and their outputs.
// ---------------------------------------------------------------------------

/// Declares a control-plane message enum from one list: per variant its tag
/// byte, and per field its type and the [`Writer`]/[`Cursor`] method that
/// moves it (`json` for serde-derived configuration, `f32s`/`f64s` for
/// float vectors as raw little-endian bits — so NaN payloads survive). The
/// enum, `tag`, `encode` and `decode` all expand from that list, so the
/// wire layout cannot drift from the type.
macro_rules! message_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal { $($field:ident: $ty:ty => $codec:ident),* $(,)? }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $name {
            $($(#[$vmeta])* $variant { $($field: $ty),* }),*
        }

        impl $name {
            /// The byte that names the variant on the wire.
            fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag),*
                }
            }

            /// The control-plane encoding: the variant's tag byte, then its
            /// fields in declaration order.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Writer(vec![self.tag()]);
                match self {
                    $($name::$variant { $($field),* } => { $(w.$codec($field);)* })*
                }
                w.0
            }

            /// Decodes [`Self::encode`]'s bytes.
            ///
            /// # Errors
            ///
            /// [`ProcError::Protocol`] on truncated input, trailing bytes,
            /// an unknown tag or malformed embedded JSON — never a panic.
            pub fn decode(bytes: &[u8]) -> Result<Self, ProcError> {
                let mut c = Cursor::new(bytes);
                let mut read = || {
                    let message = match c.u8()? {
                        $($tag => $name::$variant { $($field: c.$codec()?),* },)*
                        other => return Err(format!("unknown tag {other}")),
                    };
                    c.done()?;
                    Ok(message)
                };
                read().map_err(|e: String| {
                    ProcError::Protocol(format!("{}: {e}", stringify!($name)))
                })
            }
        }
    };
}

message_enum! {
    /// What one rank worker is asked to do: one variant per task, carrying
    /// exactly that task's inputs. Ships to the worker inside `START`.
    // One `Task` exists per rank per launch; boxing the config buys nothing.
    #[allow(clippy::large_enum_variant)]
    pub enum Task {
        /// Ring reduce-scatter of this rank's `grad` through `wire` under
        /// `policy`; the rank's wire RNG stream starts from `seed`.
        ReduceScatter = 0 {
            wire: Wire => json, policy: QuantizePolicy => json, seed: u64 => u64,
            grad: Vec<f32> => f32s,
        },
        /// Ring all-reduce (reduce-scatter + all-gather); same inputs.
        AllReduce = 1 {
            wire: Wire => json, policy: QuantizePolicy => json, seed: u64 => u64,
            grad: Vec<f32> => f32s,
        },
        /// One stage of [`pipeline_relay`]: ship `payload` (empty except at
        /// the head of the pipeline) through `wire`, wire RNG from `seed`.
        Relay = 2 { wire: Wire => json, seed: u64 => u64, payload: Vec<f32> => f32s },
        /// Build a trainer from `trainer` and run `steps` steps of the
        /// shared data-parallel loop, all-reducing gradients through
        /// `wire` under `policy` with wire RNG streams derived from
        /// `comm_seed`.
        DpTrain = 3 {
            wire: Wire => json, policy: QuantizePolicy => json, comm_seed: u64 => u64,
            steps: u64 => u64, trainer: TrainerConfig => json,
        },
    }
}

message_enum! {
    /// What a rank worker reports back: one variant per [`Task`] variant,
    /// under the same tag. Every `rng_fingerprint` is the rank's
    /// `rng.next_u64()` drawn after the task — it pins that the wire RNG
    /// stream advanced exactly as the oracle's did.
    pub enum TaskOutput {
        /// The fully reduced `data` of the chunk `[lo, hi)` this rank owns.
        ReduceScatter = 0 {
            lo: usize => usize, hi: usize => usize, rng_fingerprint: u64 => u64,
            data: Vec<f32> => f32s,
        },
        /// This rank's copy of the full reduced vector.
        AllReduce = 1 { rng_fingerprint: u64 => u64, data: Vec<f32> => f32s },
        /// What this stage received (empty at rank 0).
        Relay = 2 { rng_fingerprint: u64 => u64, received: Vec<f32> => f32s },
        /// Per-step `losses` and the final model parameters, flattened in
        /// visit order.
        DpTrain = 3 { losses: Vec<f64> => f64s, params: Vec<f32> => f32s },
    }
}

// ---------------------------------------------------------------------------
// The socket fabric.
// ---------------------------------------------------------------------------

/// What a link's reader thread hands the owning rank: a reassembled frame
/// or the typed defect that ended the stream.
type LinkFrame = Result<Vec<u8>, TransportError>;

/// The process backend of [`Fabric`]: one Unix-domain socket per rank pair,
/// length-prefixed frames, a reader thread per link reassembling frames
/// from arbitrarily chunked reads (and keeping the socket drained, so bulk
/// ring steps cannot deadlock on full kernel buffers).
pub struct SocketFabric {
    rank: usize,
    world: usize,
    writers: Vec<Option<UnixStream>>,
    inboxes: Vec<Option<Receiver<LinkFrame>>>,
    /// Longest a `recv_frame` waits before reporting a stalled peer.
    deadline: Duration,
}

fn mesh_sock(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("m{rank}"))
}

fn io_err(rank: usize, e: &std::io::Error) -> TransportError {
    TransportError::Io {
        rank,
        message: e.to_string(),
    }
}

impl SocketFabric {
    /// Builds this rank's side of the full socket mesh: dial every lower
    /// rank's listener (announcing our rank in a 4-byte hello), accept one
    /// stream from every higher rank, then hand each stream's read half to
    /// a reader thread.
    fn connect(
        listener: UnixListener,
        dir: &Path,
        rank: usize,
        world: usize,
    ) -> Result<SocketFabric, String> {
        let mut streams: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let path = mesh_sock(dir, peer);
            let mut stream = connect_retry(&path, MESH_TIMEOUT)
                .map_err(|e| format!("dialing rank {peer}: {e}"))?;
            stream
                .write_all(&(rank as u32).to_le_bytes())
                .map_err(|e| format!("hello to rank {peer}: {e}"))?;
            *slot = Some(stream);
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("mesh listener: {e}"))?;
        let deadline = Instant::now() + MESH_TIMEOUT;
        for _ in rank + 1..world {
            let mut stream = accept_deadline(&listener, deadline)
                .map_err(|e| format!("accepting a higher rank: {e}"))?;
            let mut hello = [0u8; 4];
            stream
                .read_exact(&mut hello)
                .map_err(|e| format!("reading a mesh hello: {e}"))?;
            let peer = u32::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= world || streams[peer].is_some() {
                return Err(format!("invalid mesh hello from rank {peer}"));
            }
            streams[peer] = Some(stream);
        }
        let mut inboxes: Vec<Option<Receiver<LinkFrame>>> = (0..world).map(|_| None).collect();
        for (peer, slot) in streams.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let read_half = stream
                .try_clone()
                .map_err(|e| format!("cloning the link to rank {peer}: {e}"))?;
            let (tx, rx) = channel();
            std::thread::spawn(move || reader_loop(read_half, peer, tx));
            inboxes[peer] = Some(rx);
        }
        Ok(SocketFabric {
            rank,
            world,
            writers: streams,
            inboxes,
            deadline: DEFAULT_RECV_DEADLINE,
        })
    }
}

/// One link's read side: reassemble length-prefixed frames from whatever
/// chunks the socket delivers and forward them (or a typed error) to the
/// owning rank. Exits on EOF or error; clean EOF after a frame boundary
/// just drops the channel, which the owner observes as `PeerClosed`.
fn reader_loop(mut stream: UnixStream, peer: usize, tx: std::sync::mpsc::Sender<LinkFrame>) {
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                if let Err(error) = decoder.finish() {
                    let _ = tx.send(Err(TransportError::Stream { src: peer, error }));
                }
                return;
            }
            Ok(n) => {
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if tx.send(Ok(frame)).is_err() {
                                return; // owner gone; stop draining
                            }
                        }
                        Ok(None) => break,
                        Err(error) => {
                            let _ = tx.send(Err(TransportError::Stream { src: peer, error }));
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = tx.send(Err(io_err(peer, &e)));
                return;
            }
        }
    }
}

impl Fabric for SocketFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<u64, TransportError> {
        let Some(writer) = self.writers.get_mut(dst).and_then(Option::as_mut) else {
            return Err(TransportError::PeerClosed { rank: dst });
        };
        let wire = (STREAM_ENVELOPE_BYTES + frame.len()) as u64;
        // Envelope and body as two writes: the body is never copied.
        let write = |w: &mut UnixStream| -> std::io::Result<()> {
            w.write_all(&stream_envelope(&frame))?;
            w.write_all(&frame)
        };
        write(writer).map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                TransportError::PeerClosed { rank: dst }
            }
            _ => io_err(dst, &e),
        })?;
        Ok(wire)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Vec<u8>, u64), TransportError> {
        let Some(inbox) = self.inboxes.get(src).and_then(Option::as_ref) else {
            return Err(TransportError::PeerClosed { rank: src });
        };
        let start = Instant::now();
        match inbox.recv_timeout(self.deadline) {
            Ok(Ok(frame)) => {
                let wire = (STREAM_ENVELOPE_BYTES + frame.len()) as u64;
                Ok((frame, wire))
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                src,
                elapsed: start.elapsed(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::PeerClosed { rank: src }),
        }
    }

    fn set_recv_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }
}

impl Drop for SocketFabric {
    fn drop(&mut self) {
        // Force EOF at every peer even while our reader threads still hold
        // clones of the streams — dropping the fabric *is* the abort
        // signal.
        for writer in self.writers.iter().flatten() {
            let _ = writer.shutdown(Shutdown::Both);
        }
    }
}

fn connect_retry(path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retriable = matches!(
                    e.kind(),
                    ErrorKind::NotFound | ErrorKind::ConnectionRefused | ErrorKind::WouldBlock
                );
                if !retriable || Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn accept_deadline(listener: &UnixListener, deadline: Instant) -> std::io::Result<UnixStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "timed out waiting for a connection",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Accepts one control connection during the READY handshake, failing fast
/// with [`ProcError::Worker`] if a worker whose READY is still outstanding
/// (no control stream yet in `ctrls`) has already exited.
fn accept_ready(
    listener: &UnixListener,
    deadline: Instant,
    guard: &mut WorkerGuard,
    ctrls: &[Option<UnixStream>],
) -> Result<UnixStream, ProcError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| ProcError::Launch(format!("control stream: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                for (rank, child) in guard.children.iter_mut().enumerate() {
                    if ctrls[rank].is_some() {
                        continue;
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(ProcError::Worker {
                            rank,
                            message: format!("worker exited with {status} before reporting READY"),
                        });
                    }
                }
                if Instant::now() >= deadline {
                    return Err(ProcError::Launch(
                        "timed out waiting for workers to report ready — does the \
                         launching binary's main() call transport::proc::worker_boot() \
                         first?"
                            .into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(ProcError::Launch(format!(
                    "waiting for workers to report ready: {e}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// The worker entry point. **Call this first thing in `main`** of any
/// binary that launches a process fabric (tests and experiment binaries
/// alike). In a spawned rank worker it runs the assigned task and exits the
/// process; in every other process it returns immediately.
pub fn worker_boot() {
    if std::env::var_os(ENV_WORKER).is_none() {
        return;
    }
    let code = match worker_run() {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("snip rank worker failed: {message}");
            101
        }
    };
    std::process::exit(code);
}

fn env_usize(key: &str) -> Result<usize, String> {
    std::env::var(key)
        .map_err(|_| format!("{key} not set"))?
        .parse::<usize>()
        .map_err(|e| format!("{key}: {e}"))
}

fn worker_run() -> Result<(), String> {
    let dir = PathBuf::from(std::env::var(ENV_DIR).map_err(|_| format!("{ENV_DIR} not set"))?);
    let rank = env_usize(ENV_RANK)?;
    let world = env_usize(ENV_WORLD)?;
    if rank >= world {
        return Err(format!("rank {rank} out of range for world {world}"));
    }
    // Chaos-harness hook: die before the READY handshake, exercising the
    // launcher's fail-fast path for a worker that never comes up. Workers
    // inherit the launcher's environment, so a test sets this around one
    // launch.
    if std::env::var(ENV_EXIT_BEFORE_READY).ok().as_deref() == Some(&rank.to_string()) {
        std::process::exit(17);
    }
    let listener = UnixListener::bind(mesh_sock(&dir, rank))
        .map_err(|e| format!("binding the mesh listener: {e}"))?;
    let mut ctrl = connect_retry(&dir.join("c"), HANDSHAKE_TIMEOUT)
        .map_err(|e| format!("dialing the control socket: {e}"))?;
    ctrl.set_read_timeout(Some(RESULT_TIMEOUT))
        .map_err(|e| format!("control stream: {e}"))?;
    let mut ready = Writer(vec![MSG_READY]);
    ready.u32(rank as u32);
    ctrl_send(&mut ctrl, &ready.0).map_err(|e| format!("sending READY: {e}"))?;

    let start = ctrl_recv(&mut ctrl).map_err(|e| format!("waiting for START: {e}"))?;
    let mut c = Cursor::new(&start);
    if c.u8()? != MSG_START {
        return Err("expected a START message".into());
    }
    let plan: ChaosPlan = c.json()?;
    let task = Task::decode(c.rest()).map_err(|e| e.to_string())?;

    // Every worker's fabric is decorated; a launch without faults ships the
    // pass-through plan, which is bit- and counter-identical to bare sockets.
    let fabric = SocketFabric::connect(listener, &dir, rank, world)?;
    let mut ep = Endpoint::new(ChaosFabric::new(fabric, plan));
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_task(&mut ep, &task)))
            .unwrap_or_else(|panic| {
                let text = super::panic_text(panic.as_ref()).unwrap_or("opaque panic");
                Err(format!("task panicked: {text}"))
            });
    let report = match &outcome {
        Ok(output) => {
            let mut msg = Writer(vec![MSG_RESULT]);
            encode_stats(&mut msg, &ep.stats(), rank);
            msg.0.extend_from_slice(&output.encode());
            msg.0
        }
        Err(message) => [&[MSG_ERROR], message.as_bytes()].concat(),
    };
    // Drop the endpoint (closing the mesh) only after the report is staged:
    // peers may still be draining our buffered frames.
    ctrl_send(&mut ctrl, &report).map_err(|e| format!("sending the result: {e}"))?;
    drop(ep);
    outcome.map(|_| ())
}

/// Runs one rank's [`Task`] over an already-connected endpoint — the single
/// place task bodies live, generic over the fabric.
///
/// # Errors
///
/// The failure as text, with the [`TransportError`]'s `Display` wording
/// intact (that wording is what [`is_cascade_error`] attributes root causes
/// from).
pub fn run_task<F: Fabric>(ep: &mut Endpoint<F>, task: &Task) -> Result<TaskOutput, String> {
    let terr = |e: TransportError| format!("transport: {e}");
    match task {
        Task::ReduceScatter {
            wire,
            policy,
            seed,
            grad,
        } => {
            let mut rng = Rng::seed_from(*seed);
            let chunk = ep
                .ring_reduce_scatter(grad, wire, *policy, &mut rng)
                .map_err(terr)?;
            Ok(TaskOutput::ReduceScatter {
                lo: chunk.lo,
                hi: chunk.hi,
                rng_fingerprint: rng.next_u64(),
                data: chunk.data,
            })
        }
        Task::AllReduce {
            wire,
            policy,
            seed,
            grad,
        } => {
            let mut rng = Rng::seed_from(*seed);
            let data = ep
                .ring_all_reduce(grad, wire, *policy, &mut rng)
                .map_err(terr)?;
            Ok(TaskOutput::AllReduce {
                rng_fingerprint: rng.next_u64(),
                data,
            })
        }
        Task::Relay {
            wire,
            seed,
            payload,
        } => {
            let mut rng = Rng::seed_from(*seed);
            let received = pipeline_relay(ep, payload, wire, &mut rng).map_err(terr)?;
            Ok(TaskOutput::Relay {
                rng_fingerprint: rng.next_u64(),
                received,
            })
        }
        Task::DpTrain {
            wire,
            policy,
            comm_seed,
            steps,
            trainer,
        } => {
            let mut trainer =
                Trainer::new(trainer.clone()).map_err(|e| format!("trainer config: {e}"))?;
            let (losses, error) =
                dp_train_loop(ep, &mut trainer, *steps, wire, *policy, *comm_seed);
            if let Some(e) = error {
                return Err(terr(e));
            }
            let mut params = Vec::new();
            trainer.model.visit_params_mut(&mut |p| {
                params.extend_from_slice(p.value().as_slice());
            });
            Ok(TaskOutput::DpTrain { losses, params })
        }
    }
}

/// Serializes this rank's side of the link counters: its tx row (what it
/// sent to each dst) and its rx column (what it received from each src).
fn encode_stats(w: &mut Writer, stats: &TransportStats, rank: usize) {
    let world = stats.world();
    w.u32(world as u32);
    for dst in 0..world {
        w.u64(&stats.payload[rank * world + dst]);
        w.u64(&stats.envelope[rank * world + dst]);
        w.u64(&stats.frames[rank * world + dst]);
    }
    for src in 0..world {
        w.u64(&stats.rx_payload[src * world + rank]);
        w.u64(&stats.rx_envelope[src * world + rank]);
        w.u64(&stats.rx_frames[src * world + rank]);
    }
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// Kills and reaps the spawned workers unless the launch completed.
struct WorkerGuard {
    children: Vec<Child>,
    armed: bool,
}

impl WorkerGuard {
    fn finish(mut self) -> Result<(), ProcError> {
        self.armed = false;
        for (rank, child) in self.children.iter_mut().enumerate() {
            let status = child
                .wait()
                .map_err(|e| ProcError::Launch(format!("reaping rank {rank}: {e}")))?;
            if !status.success() {
                return Err(ProcError::Worker {
                    rank,
                    message: format!("worker exited with {status}"),
                });
            }
        }
        Ok(())
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Removes the fabric's socket directory when the launch scope ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fabric_dir() -> Result<PathBuf, ProcError> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "snip-fab-{}-{}-{nonce:x}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| ProcError::Launch(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

/// The process driver: spawns `tasks.len()` rank workers by re-executing the
/// current binary, hands worker `r` its task and the chaos plan (`None`
/// ships the pass-through plan), and collects each worker's [`TaskOutput`]
/// plus the merged, cross-checked traffic counters.
///
/// The calling binary's `main` must invoke [`worker_boot`] before anything
/// else — see the module docs for the full protocol.
///
/// # Errors
///
/// [`ProcError`] on spawn/handshake failures, worker task failures (with
/// the root cause from the failing rank — including the typed fault a chaos
/// schedule injects), malformed control messages, or a per-link accounting
/// mismatch between sender and receiver.
///
/// # Panics
///
/// Panics if `tasks` is empty.
pub fn launch(
    tasks: Vec<Task>,
    chaos: Option<&ChaosPlan>,
) -> Result<(Vec<TaskOutput>, TransportStats), ProcError> {
    if std::env::var_os(ENV_WORKER).is_some() {
        return Err(ProcError::Launch(
            "this process is itself a rank worker whose main() never called \
             transport::proc::worker_boot(); refusing to launch a nested fabric"
                .into(),
        ));
    }
    let world = tasks.len();
    assert!(world > 0, "need at least one rank");
    let dir = fabric_dir()?;
    let _dir_guard = DirGuard(dir.clone());
    let listener = UnixListener::bind(dir.join("c"))
        .map_err(|e| ProcError::Launch(format!("binding the control socket: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ProcError::Launch(format!("control socket: {e}")))?;
    let exe = std::env::current_exe()
        .map_err(|e| ProcError::Launch(format!("resolving current_exe: {e}")))?;
    let children: Vec<Child> = (0..world)
        .map(|rank| {
            Command::new(&exe)
                .env(ENV_WORKER, "1")
                .env(ENV_DIR, &dir)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_WORLD, world.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| ProcError::Launch(format!("spawning rank {rank}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let mut guard = WorkerGuard {
        children,
        armed: true,
    };

    // Handshake: accept one control connection per rank, identified by its
    // READY message. Between accept polls, check whether any worker whose
    // READY is still outstanding has already died — a rank that exits
    // before reporting in fails the launch *now*, with a typed error naming
    // it, instead of stalling the parent until the handshake deadline.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut ctrls: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    for _ in 0..world {
        let mut stream = accept_ready(&listener, deadline, &mut guard, &ctrls)?;
        stream
            .set_read_timeout(Some(RESULT_TIMEOUT))
            .map_err(|e| ProcError::Launch(format!("control stream: {e}")))?;
        let ready =
            ctrl_recv(&mut stream).map_err(|e| ProcError::Launch(format!("reading READY: {e}")))?;
        let [MSG_READY, a, b, c, d] = ready[..] else {
            return Err(ProcError::Protocol("expected READY".into()));
        };
        let rank = u32::from_le_bytes([a, b, c, d]) as usize;
        if rank >= world || ctrls[rank].is_some() {
            return Err(ProcError::Protocol(format!("duplicate or bad rank {rank}")));
        }
        ctrls[rank] = Some(stream);
    }
    let mut ctrls: Vec<UnixStream> = ctrls.into_iter().map(|s| s.expect("all ready")).collect();

    // Everyone is listening: release the tasks.
    let calm = ChaosPlan::none(0);
    for (rank, (ctrl, task)) in ctrls.iter_mut().zip(&tasks).enumerate() {
        let mut msg = Writer(vec![MSG_START]);
        msg.json(chaos.unwrap_or(&calm));
        msg.0.extend_from_slice(&task.encode());
        ctrl_send(ctrl, &msg.0)
            .map_err(|e| ProcError::Launch(format!("sending START to rank {rank}: {e}")))?;
    }

    // Collect every rank's report before judging the run, so a failure is
    // attributed to its root cause: one dead rank makes every peer blocked
    // on it fail with a secondary "closed its link mid-collective" cascade.
    let mut results: Vec<TaskOutput> = Vec::with_capacity(world);
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut merged = TransportStats::snapshot(&LinkCounters::new(world));
    for (rank, ctrl) in ctrls.iter_mut().enumerate() {
        let msg = match ctrl_recv(ctrl) {
            Ok(msg) => msg,
            Err(e) => {
                errors.push((rank, format!("control stream: {e}")));
                continue;
            }
        };
        let mut c = Cursor::new(&msg);
        match c.u8().map_err(ProcError::Protocol)? {
            MSG_RESULT => {
                merge_stats(&mut merged, &mut c, rank).map_err(ProcError::Protocol)?;
                let output = TaskOutput::decode(c.rest())?;
                if output.tag() != tasks[rank].tag() {
                    return Err(ProcError::Protocol(format!(
                        "rank {rank} answered its task with another task's output"
                    )));
                }
                results.push(output);
            }
            MSG_ERROR => {
                errors.push((rank, String::from_utf8_lossy(&msg[1..]).into_owned()));
            }
            other => {
                return Err(ProcError::Protocol(format!(
                    "unexpected control tag {other} from rank {rank}"
                )));
            }
        }
    }
    if !errors.is_empty() {
        // Workers never publish telemetry (their registries die with them),
        // so the launcher classifies their failure reports into the
        // transport failure counters here.
        for (_, message) in &errors {
            super::note_failure_message(message);
        }
        // Root-cause attribution: the first *primary* fault. Everything
        // matching the cascade shapes (`PeerClosed` at a rank waiting on
        // the dead one, a timeout induced by a stalled neighbour) is a
        // consequence of the primary, not a cause; if the primary never
        // reported (e.g. a kill so abrupt even its ERROR was lost), fall
        // back to the first cascade.
        let root = errors
            .iter()
            .position(|(_, m)| !is_cascade_error(m))
            .unwrap_or(0);
        let (rank, message) = errors.swap_remove(root);
        return Err(ProcError::Worker { rank, message });
    }
    guard.finish()?;

    // Both sides of every socket must have accounted the identical volume.
    for src in 0..world {
        for dst in 0..world {
            let i = src * world + dst;
            if merged.payload[i] != merged.rx_payload[i]
                || merged.envelope[i] != merged.rx_envelope[i]
                || merged.frames[i] != merged.rx_frames[i]
            {
                return Err(ProcError::AccountingMismatch { src, dst });
            }
        }
    }
    // Workers never publish telemetry themselves: their per-link counters
    // arrive through the RESULT handshake and are exported here, once,
    // after the cross-check — so the socket fabric reports through the same
    // path as the threaded mesh.
    super::publish_transport_stats(&merged);
    Ok((results, merged))
}

/// Folds one worker's stats report (its tx row and rx column) into the
/// merged matrices.
fn merge_stats(merged: &mut TransportStats, c: &mut Cursor<'_>, rank: usize) -> Result<(), String> {
    let world = merged.world;
    let reported = c.u32()? as usize;
    if reported != world {
        return Err(format!(
            "rank {rank} reported world {reported}, expected {world}"
        ));
    }
    let tx = c.u64s(3 * world)?;
    let rx = c.u64s(3 * world)?;
    for dst in 0..world {
        merged.payload[rank * world + dst] += tx[3 * dst];
        merged.envelope[rank * world + dst] += tx[3 * dst + 1];
        merged.frames[rank * world + dst] += tx[3 * dst + 2];
    }
    for src in 0..world {
        merged.rx_payload[src * world + rank] += rx[3 * src];
        merged.rx_envelope[src * world + rank] += rx[3 * src + 1];
        merged.rx_frames[src * world + rank] += rx[3 * src + 2];
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public task wrappers.
// ---------------------------------------------------------------------------

/// A collective's outcome over the process fabric.
#[derive(Clone, Debug)]
pub struct ProcCollective {
    /// Per-rank reduced payloads, in the in-proc simulator's shape
    /// (`bytes_on_wire` comes from the *measured* payload counters).
    pub result: CollectiveResult,
    /// Each rank's `rng.next_u64()` drawn after the collective — pins that
    /// the per-rank RNG streams advanced exactly as the oracle's did.
    pub rng_fingerprints: Vec<u64>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

/// A data-parallel training run's outcome over the process fabric.
#[derive(Clone, Debug)]
pub struct ProcDpTrain {
    /// Per-rank, per-step losses.
    pub losses: Vec<Vec<f64>>,
    /// Each rank's final model parameters, flattened in visit order — the
    /// bit-exact witness that every rank holds the same trained model the
    /// threaded run produces.
    pub params: Vec<Vec<f32>>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

impl ProcCollective {
    /// Reshapes a collective launch's outputs into the in-proc simulator's
    /// result shape.
    pub fn from_outputs(outputs: Vec<TaskOutput>, stats: TransportStats) -> Self {
        let mut result = CollectiveResult {
            per_rank: Vec::new(),
            owned: Vec::new(),
            bytes_on_wire: stats.total_payload_bytes(),
        };
        let mut rng_fingerprints = Vec::new();
        for output in outputs {
            let (lo, hi, fingerprint, data) = match output {
                TaskOutput::ReduceScatter {
                    lo,
                    hi,
                    rng_fingerprint,
                    data,
                } => (lo, hi, rng_fingerprint, data),
                TaskOutput::AllReduce {
                    rng_fingerprint,
                    data,
                } => (0, data.len(), rng_fingerprint, data),
                other => unreachable!("launch matches outputs to tasks, got {other:?}"),
            };
            result.owned.push((lo, hi));
            result.per_rank.push(data);
            rng_fingerprints.push(fingerprint);
        }
        ProcCollective {
            result,
            rng_fingerprints,
            stats,
        }
    }
}

/// Ring all-reduce over the process fabric: one worker process per rank,
/// gradients and seeds shipped to each worker, results and counters shipped
/// back. Must be bit-identical to [`super::threaded_all_reduce`] and the
/// in-proc ranked oracle for the same inputs and seeds.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `grads` is empty or `seeds.len()` differs.
pub fn proc_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
) -> Result<ProcCollective, ProcError> {
    assert_eq!(seeds.len(), grads.len(), "need one seed per rank");
    let tasks = grads
        .iter()
        .zip(seeds)
        .map(|(grad, &seed)| Task::AllReduce {
            wire: *wire,
            policy,
            seed,
            grad: grad.clone(),
        });
    let (outputs, stats) = launch(tasks.collect(), None)?;
    Ok(ProcCollective::from_outputs(outputs, stats))
}

/// Synchronous data-parallel training over the process fabric: each worker
/// builds its own [`Trainer`] from its config and runs the same step loop
/// as [`super::data_parallel_train`] (wire randomness re-derived per
/// rank and per step from `comm_seed` and the absolute step index), so the
/// two backends produce bit-identical losses and final parameters for the
/// same configs.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `cfgs` is empty.
pub fn proc_data_parallel_train(
    cfgs: &[TrainerConfig],
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> Result<ProcDpTrain, ProcError> {
    let dp_span = snip_obs::span("proc_data_parallel_train");
    let tasks = cfgs.iter().map(|cfg| Task::DpTrain {
        wire: *wire,
        policy,
        comm_seed,
        steps,
        trainer: cfg.clone(),
    });
    let (outputs, stats) = launch(tasks.collect(), None)?;
    let mut run = ProcDpTrain {
        losses: Vec::new(),
        params: Vec::new(),
        stats,
    };
    for output in outputs {
        let TaskOutput::DpTrain { losses, params } = output else {
            unreachable!("launch matches outputs to tasks, got {output:?}")
        };
        run.losses.push(losses);
        run.params.push(params);
    }
    // Close the span before flushing so the run itself appears in the trace.
    // Only the parent writes: workers exited after the RESULT handshake and
    // never call flush.
    drop(dp_span);
    super::flush_run_artifacts();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payloads chosen to break a lossy encoding: empty, odd lengths, and a
    /// NaN whose payload bits a float-level copy could canonicalize.
    fn payloads() -> Vec<Vec<f32>> {
        vec![
            Vec::new(),
            vec![1.5],
            vec![f32::from_bits(0x7FC1_2345), -0.0, f32::INFINITY],
            (0..37).map(|i| i as f32 * 0.25 - 4.0).collect(),
        ]
    }

    fn tasks() -> Vec<Task> {
        let (policy, seed) = (QuantizePolicy::FinalOnly, u64::MAX - 6);
        let mut all = Vec::new();
        for grad in payloads() {
            for wire in [Wire::exact(), Wire::fp4(16), Wire::mxfp4()] {
                all.push(Task::ReduceScatter {
                    wire,
                    policy,
                    seed,
                    grad: grad.clone(),
                });
                all.push(Task::AllReduce {
                    wire,
                    policy: QuantizePolicy::EveryHop,
                    seed: 0,
                    grad: grad.clone(),
                });
                all.push(Task::Relay {
                    wire,
                    seed,
                    payload: grad.clone(),
                });
            }
        }
        all.push(Task::DpTrain {
            wire: Wire::fp8(32),
            policy,
            comm_seed: 0xC0FFEE,
            steps: 3,
            trainer: TrainerConfig::tiny(),
        });
        all
    }

    fn outputs() -> Vec<TaskOutput> {
        let mut all = Vec::new();
        for data in payloads() {
            all.push(TaskOutput::ReduceScatter {
                lo: 7,
                hi: 7 + data.len(),
                rng_fingerprint: u64::MAX,
                data: data.clone(),
            });
            all.push(TaskOutput::AllReduce {
                rng_fingerprint: 1,
                data: data.clone(),
            });
            all.push(TaskOutput::Relay {
                rng_fingerprint: 0,
                received: data.clone(),
            });
            all.push(TaskOutput::DpTrain {
                losses: data.iter().map(|&v| f64::from(v) * 1.000_000_1).collect(),
                params: data,
            });
        }
        all
    }

    /// Every proper prefix, and the message plus one byte, must be a typed
    /// protocol error — never a panic, never a silently short payload.
    fn rejects_damage<T: std::fmt::Debug>(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, ProcError>,
    ) {
        for cut in 0..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(ProcError::Protocol(_)) => {}
                other => panic!("prefix of {cut}/{} bytes decoded to {other:?}", bytes.len()),
            }
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(matches!(decode(&long), Err(ProcError::Protocol(_))));
        let mut unknown = bytes.to_vec();
        unknown[0] = 0xEE;
        assert!(matches!(decode(&unknown), Err(ProcError::Protocol(_))));
    }

    #[test]
    fn tasks_round_trip_bit_exactly_and_reject_damaged_bytes() {
        for task in tasks() {
            let bytes = task.encode();
            let back = Task::decode(&bytes).expect("a well-formed task decodes");
            // Re-encoding compares float payloads by their bits (a decode
            // that canonicalized the NaN would change them), which
            // `PartialEq` on a NaN-carrying task cannot.
            assert_eq!(back.encode(), bytes, "{task:?}");
            assert_eq!(back.tag(), task.tag());
            rejects_damage(&bytes, Task::decode);
        }
    }

    #[test]
    fn task_outputs_round_trip_bit_exactly_and_reject_damaged_bytes() {
        for output in outputs() {
            let bytes = output.encode();
            let back = TaskOutput::decode(&bytes).expect("a well-formed output decodes");
            assert_eq!(back.encode(), bytes, "{output:?}");
            assert_eq!(back.tag(), output.tag());
            rejects_damage(&bytes, TaskOutput::decode);
        }
    }
}
