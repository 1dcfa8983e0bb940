//! The multi-**process** transport backend: rank workers connected by
//! Unix-domain sockets.
//!
//! [`super::run_ranks`] puts ranks on OS threads; this module puts them in
//! separate OS processes — the shape the paper's setting actually has
//! (Megatron-style PP/DP workers), where quantized gradients must cross a
//! real byte stream. The rank-facing surface is unchanged: a worker gets an
//! [`Endpoint`] over a [`SocketFabric`] and runs the *same* generic
//! collective and DP-loop code as the threaded backend, bit for bit.
//!
//! # Launch protocol
//!
//! [`launch`] takes one typed [`Task`] per rank (plus an optional
//! [`ChaosPlan`] every worker applies to its fabric) and spawns `R` workers
//! by **re-executing the current binary** (`std::env::current_exe`) with
//! one environment variable, the `SNIP_RANK_WORKER` boot marker. Any
//! binary that launches a process fabric must therefore call
//! [`worker_boot`] **first thing in `main`**: in a worker process it never
//! returns (it runs the assigned task and exits), in the parent it is a
//! no-op. A worker whose `main` forgot the call refuses to launch a nested
//! fabric, so the mistake surfaces as an error instead of a fork bomb.
//!
//! A worker's stdin and stdout pipes are its whole control channel: they
//! belong to one rank and close when it dies. Each carries one
//! [`snip_quant::stream_frame`] (length prefix + CRC32 of the body),
//! written whole and read to EOF:
//!
//! 1. the parent writes `START` to the worker's stdin and closes it: the
//!    fabric directory (private to the user, mode `0700`), the rank, the
//!    world size, the chaos plan and the worker's own encoded [`Task`]
//!    (codec + seeds + its own payload — peers' data never crosses, unlike
//!    the threaded closures that share an address space);
//! 2. the worker binds its mesh listener in the fabric directory and builds
//!    the full socket mesh: it dials every lower rank (retrying until that
//!    rank's listener is bound, since nothing orders the workers' starts)
//!    and accepts every higher one, each stream prefixed by a 4-byte rank
//!    hello;
//! 3. it runs the task through [`run_task`], writes one report to its
//!    stdout — `RESULT` (its endpoint's [`TransportStats`] as JSON, then
//!    its [`TaskOutput`], encoded straight into the report buffer) or
//!    `ERROR` — and exits;
//! 4. one parent thread per worker reads that report and checks its length
//!    and CRC in that thread, as soon as the pipe hits EOF, so the ranks'
//!    checks overlap. A worker that exits without a report leaves an empty
//!    pipe, and the launch fails at once naming its rank. Once every report
//!    is in, the parent decodes them one rank at a time, adds every worker's
//!    ledger ([`ProcError::Protocol`] for one of the wrong shape), reaps
//!    the workers, and checks that both sides of every link agree
//!    ([`ProcError::AccountingMismatch`] names the first that does not).
//!
//! No library code a worker runs prints to stdout. A stray write would fail
//! the report's length or CRC check as a typed [`ProcError::Protocol`];
//! it cannot pass for a result.
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
//! `proc_*` helpers below are fault-free delegations that build the tasks;
//! `proc_all_reduce` returns the launch as it is.

use super::chaos::{ChaosFabric, ChaosPlan};
use super::fabric::{is_cascade_error, Fabric, TransportError};
use super::frame::extend_le;
use super::{dp_train_loop, root_cause, Endpoint, TransportStats};
use crate::collective::{QuantizePolicy, Wire};
use serde::{Deserialize, Serialize};
use snip_core::{Trainer, TrainerConfig};
use snip_quant::{
    stream_body_len, stream_check_body, stream_envelope, StreamDecoder, STREAM_ENVELOPE_BYTES,
};
use snip_tensor::rng::Rng;
use std::ffi::OsStr;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::ffi::OsStrExt;
use std::os::unix::fs::DirBuilderExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime};

const ENV_WORKER: &str = "SNIP_RANK_WORKER";
/// Chaos-harness hook: a worker whose rank matches this variable's value
/// exits right after reading its `START`, simulating a rank that dies
/// during boot. Public so the chaos harness can set it; unset in normal
/// operation.
pub const ENV_EXIT_AT_BOOT: &str = "SNIP_CHAOS_EXIT_AT_BOOT";

/// How long the parent waits for every worker's report (covers debug-build
/// DP training loops).
const RESULT_TIMEOUT: Duration = Duration::from_secs(600);
/// How long a worker waits for mesh peers to bind and to dial in.
const MESH_TIMEOUT: Duration = Duration::from_secs(120);

// Control-plane message tags.
const MSG_START: u8 = 2;
const MSG_RESULT: u8 = 3;
const MSG_ERROR: u8 = 4;

/// Everything that can go wrong launching or running a process fabric.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcError {
    /// Spawning the workers, or reaching them over their pipes, failed.
    Launch(String),
    /// A worker reported a task failure (transport error, panic, bad spec)
    /// or exited without a report.
    Worker {
        /// The failing rank.
        rank: usize,
        /// Its error report.
        message: String,
    },
    /// A control message (`START` or a worker's report) was malformed.
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
            ProcError::Protocol(m) => write!(f, "malformed control message: {m}"),
            ProcError::AccountingMismatch { src, dst } => write!(
                f,
                "link {src} → {dst}: sender and receiver counters disagree"
            ),
        }
    }
}

impl std::error::Error for ProcError {}

// ---------------------------------------------------------------------------
// Stream framing: mesh frames, and the one frame per control pipe.
// ---------------------------------------------------------------------------

/// Writes `body` as one [`snip_quant::stream_frame`]: envelope and body as
/// two writes, so the body is never copied.
fn write_frame(to: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    to.write_all(&stream_envelope(body))?;
    to.write_all(body)
}

/// Reads a control pipe to EOF into one buffer sized by its frame's length
/// prefix, so a large report lands without regrowing (and re-copying) it.
fn read_pipe(from: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    let envelope = STREAM_ENVELOPE_BYTES as u64;
    from.by_ref().take(envelope).read_to_end(&mut bytes)?;
    if bytes.len() == STREAM_ENVELOPE_BYTES {
        bytes.reserve_exact(stream_body_len(&bytes).unwrap_or(0));
    }
    from.read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// The body of the one [`write_frame`] a control pipe carried, checked
/// against its length prefix and CRC — a short, long or damaged pipe is an
/// error, never a payload.
fn unframe(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < STREAM_ENVELOPE_BYTES {
        return Err(format!("{} bytes, no frame envelope", bytes.len()));
    }
    let (envelope, body) = bytes.split_at(STREAM_ENVELOPE_BYTES);
    let len = stream_body_len(envelope).map_err(|e| e.to_string())?;
    if body.len() != len {
        return Err(format!("frame of {len} bytes, pipe held {}", body.len()));
    }
    stream_check_body(envelope, body).map_err(|e| e.to_string())?;
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
        Ok(raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4")))
            .collect())
    }

    fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(8 * n)?;
        Ok(raw
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8")))
            .collect())
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// A length-prefixed JSON blob — how serde-derived configuration
    /// (codecs, trainer configs, chaos plans) rides inside binary messages.
    fn json<T: Deserialize>(&mut self) -> Result<T, String> {
        serde_json::from_slice(self.bytes()?).map_err(|e| format!("embedded json: {e:?}"))
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

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }

    fn json<T: Serialize>(&mut self, v: &T) {
        self.bytes(&serde_json::to_vec(v).expect("config types serialize"));
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        extend_le(&mut self.0, vs, |v| v.to_le_bytes());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        extend_le(&mut self.0, vs, |v| v.to_le_bytes());
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

            /// Appends the control-plane encoding to `w`: the variant's tag
            /// byte, then its fields in declaration order.
            fn write(&self, w: &mut Writer) {
                w.0.push(self.tag());
                match self {
                    $($name::$variant { $($field),* } => { $(w.$codec($field);)* })*
                }
            }

            /// The control-plane encoding on its own: `write` into a fresh
            /// buffer.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Writer(Vec::new());
                self.write(&mut w);
                w.0
            }

            /// Reads one message from `c`, leaving whatever follows it.
            fn read(c: &mut Cursor<'_>) -> Result<Self, String> {
                Ok(match c.u8()? {
                    $($tag => $name::$variant { $($field: c.$codec()?),* },)*
                    other => return Err(format!("unknown tag {other}")),
                })
            }

            /// Decodes [`Self::encode`]'s bytes.
            ///
            /// # Errors
            ///
            /// [`ProcError::Protocol`] on truncated input, trailing bytes,
            /// an unknown tag or malformed embedded JSON — never a panic.
            pub fn decode(bytes: &[u8]) -> Result<Self, ProcError> {
                let mut c = Cursor::new(bytes);
                Self::read(&mut c)
                    .and_then(|message| c.done().map(|()| message))
                    .map_err(|e| ProcError::Protocol(format!("{}: {e}", stringify!($name))))
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
        // Tag 2 was the deleted pipeline relay; tags are not reused.
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
    /// stream advanced exactly as the test-support oracle's did.
    pub enum TaskOutput {
        /// The fully reduced `data` of the chunk `[lo, hi)` this rank owns.
        ReduceScatter = 0 {
            lo: usize => usize, hi: usize => usize, rng_fingerprint: u64 => u64,
            data: Vec<f32> => f32s,
        },
        /// This rank's copy of the full reduced vector.
        AllReduce = 1 { rng_fingerprint: u64 => u64, data: Vec<f32> => f32s },
        /// Per-step `losses` and the final model parameters, flattened in
        /// visit order.
        DpTrain = 3 { losses: Vec<f64> => f64s, params: Vec<f32> => f32s },
    }
}

/// The launcher's one message to a worker, written to its stdin: where the
/// fabric lives, who the worker is, the chaos plan and its task.
#[derive(Debug)]
struct Start {
    dir: PathBuf,
    rank: usize,
    world: usize,
    plan: ChaosPlan,
    task: Task,
}

impl Start {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer(vec![MSG_START]);
        w.bytes(self.dir.as_os_str().as_bytes());
        w.usize(&self.rank);
        w.usize(&self.world);
        w.json(&self.plan);
        self.task.write(&mut w);
        w.0
    }

    /// Decodes [`Start::encode`]'s bytes; a rank outside the world is as
    /// malformed as a truncated message.
    fn decode(bytes: &[u8]) -> Result<Start, ProcError> {
        let read = |c: &mut Cursor<'_>| {
            if c.u8()? != MSG_START {
                return Err("not a START message".to_string());
            }
            // Fields are read in the order they are written.
            let start = Start {
                dir: PathBuf::from(OsStr::from_bytes(c.bytes()?)),
                rank: c.usize()?,
                world: c.usize()?,
                plan: c.json()?,
                task: Task::read(c)?,
            };
            c.done()?;
            if start.rank >= start.world {
                return Err(format!("rank {} outside world {}", start.rank, start.world));
            }
            Ok(start)
        };
        read(&mut Cursor::new(bytes)).map_err(|e| ProcError::Protocol(format!("START: {e}")))
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
    /// Builds this rank's side of the full socket mesh in `dir`: bind our
    /// listener, dial every lower rank's (announcing our rank in a 4-byte
    /// hello), accept one stream from every higher rank, then hand each
    /// stream's read half to a reader thread. Receives wait at most
    /// `deadline` for a frame.
    fn connect(
        dir: &Path,
        rank: usize,
        world: usize,
        deadline: Duration,
    ) -> Result<SocketFabric, String> {
        let listener = UnixListener::bind(mesh_sock(dir, rank))
            .map_err(|e| format!("binding the mesh listener: {e}"))?;
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
        let accept_by = Instant::now() + MESH_TIMEOUT;
        for _ in rank + 1..world {
            let mut stream = accept_deadline(&listener, accept_by)
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
            deadline,
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
        write_frame(writer, &frame).map_err(|e| match e.kind() {
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

fn worker_run() -> Result<(), String> {
    let bytes = read_pipe(&mut std::io::stdin()).map_err(|e| format!("reading START: {e}"))?;
    let start = Start::decode(unframe(&bytes)?).map_err(|e| e.to_string())?;
    // Chaos-harness hook: die right after START, exercising the launcher's
    // fail-fast path for a worker that never reports. Workers inherit the
    // launcher's environment, so a test sets this around one launch.
    if std::env::var(ENV_EXIT_AT_BOOT).ok().as_deref() == Some(&start.rank.to_string()) {
        std::process::exit(17);
    }

    // Every worker's fabric is decorated; a launch without faults ships the
    // pass-through plan, which is bit- and counter-identical to bare sockets.
    let deadline = start.plan.recv_deadline();
    let fabric = SocketFabric::connect(&start.dir, start.rank, start.world, deadline)?;
    let mut ep = Endpoint::new(ChaosFabric::new(fabric, start.plan));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_task(&mut ep, &start.task)
    }))
    .unwrap_or_else(|panic| {
        let text = super::panic_text(panic.as_ref()).unwrap_or("opaque panic");
        Err(format!("task panicked: {text}"))
    });
    // Drop the endpoint (closing the mesh) only after the report is staged:
    // peers may still be draining our buffered frames.
    let report = report(&ep.stats(), &outcome);
    let mut stdout = std::io::stdout().lock();
    write_frame(&mut stdout, &report)
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("writing the report: {e}"))?;
    drop(ep);
    outcome.map(|_| ())
}

/// A worker's one report: `RESULT` — its ledger as JSON, then its
/// [`TaskOutput`] written in place, with no intermediate encoding to copy —
/// or `ERROR` and the failure text.
fn report(stats: &TransportStats, outcome: &Result<TaskOutput, String>) -> Vec<u8> {
    match outcome {
        Ok(output) => {
            let mut msg = Writer(vec![MSG_RESULT]);
            msg.json(stats);
            output.write(&mut msg);
            msg.0
        }
        Err(message) => [&[MSG_ERROR], message.as_bytes()].concat(),
    }
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

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// Kills and reaps the spawned workers when the launch scope ends — a no-op
/// for those [`WorkerGuard::finish`] already reaped (`Child::kill` signals
/// no process once `wait` has returned).
struct WorkerGuard(Vec<Child>);

impl WorkerGuard {
    /// Reaps every worker; the first that exited unsuccessfully is an error.
    fn finish(&mut self) -> Result<(), ProcError> {
        for (rank, child) in self.0.iter_mut().enumerate() {
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
        for child in &mut self.0 {
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

/// Creates the fabric's socket directory, owner-only (`0700`): a mesh
/// listener trusts the rank hello of whoever connects, so no other local
/// user may reach it, whatever the umask.
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
    std::fs::DirBuilder::new()
        .mode(0o700)
        .create(&dir)
        .map_err(|e| ProcError::Launch(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

/// The process driver: spawns `tasks.len()` rank workers by re-executing the
/// current binary, hands worker `r` its task and the chaos plan (`None`
/// ships the pass-through plan), and collects each worker's [`TaskOutput`]
/// plus the sum of every worker's traffic ledger, cross-checked link by
/// link.
///
/// The calling binary's `main` must invoke [`worker_boot`] before anything
/// else — see the module docs for the full protocol.
///
/// # Errors
///
/// [`ProcError`] on spawn or pipe failures, a worker that exits without a
/// report, worker task failures (with the root cause from the failing rank —
/// including the typed fault a chaos schedule injects), malformed control
/// messages, or a per-link accounting mismatch between sender and receiver.
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
    let exe = std::env::current_exe()
        .map_err(|e| ProcError::Launch(format!("resolving current_exe: {e}")))?;
    let calm = ChaosPlan::none(0);
    let plan = chaos.unwrap_or(&calm);
    let tags: Vec<u8> = tasks.iter().map(Task::tag).collect();
    // One scoped thread per worker writes its START and reads its one
    // report; the reports meet in one channel, in whatever order the workers
    // finish. Leaving the scope early drops the guard first, which kills the
    // workers and so ends every thread the scope then joins.
    let (mut guard, framed) = std::thread::scope(|scope| {
        let mut guard = WorkerGuard(Vec::with_capacity(world));
        let (tx, reports) = channel();
        for (rank, task) in tasks.into_iter().enumerate() {
            let mut child = Command::new(&exe)
                .env(ENV_WORKER, "1")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| ProcError::Launch(format!("spawning rank {rank}: {e}")))?;
            let mut stdin = child.stdin.take().expect("stdin is piped");
            let mut stdout = child.stdout.take().expect("stdout is piped");
            guard.0.push(child);
            let start = Start {
                dir: dir.clone(),
                rank,
                world,
                plan: plan.clone(),
                task,
            }
            .encode();
            let tx = tx.clone();
            scope.spawn(move || {
                let written = write_frame(&mut stdin, &start);
                drop(stdin); // EOF after START: it is all the worker reads

                // The frame is checked here, at EOF, so the ranks' CRC passes
                // over their reports overlap instead of queueing in `launch`.
                let report = written.and_then(|()| read_pipe(&mut stdout)).map(|bytes| {
                    let checked = unframe(&bytes).map(|_| ());
                    (bytes, checked)
                });
                let _ = tx.send((rank, report));
            });
        }
        // Collect every rank's report before judging the run, so a failure
        // is attributed to its root cause: one dead rank makes every peer
        // blocked on it fail with a secondary "closed its link
        // mid-collective" cascade. A worker that exits without a report is a
        // root cause by itself; a report that fails its frame check is judged
        // with the others below, in rank order.
        let deadline = Instant::now() + RESULT_TIMEOUT;
        let mut framed = vec![Ok(Vec::new()); world];
        for _ in 0..world {
            let wait = deadline.saturating_duration_since(Instant::now());
            let (rank, report) = reports.recv_timeout(wait).map_err(|_| {
                ProcError::Launch(format!("no report from every worker in {RESULT_TIMEOUT:?}"))
            })?;
            let message = match report {
                Ok((bytes, checked)) if !bytes.is_empty() => {
                    framed[rank] = checked.map(|()| bytes);
                    continue;
                }
                Ok(_) => "worker exited without a report".to_string(),
                Err(e) => format!("worker pipe failed: {e}"),
            };
            return Err(ProcError::Worker { rank, message });
        }
        Ok((guard, framed))
    })?;
    let mut results: Vec<TaskOutput> = Vec::with_capacity(world);
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut merged = TransportStats::new(world);
    // Consumed rank by rank: each raw report is freed once decoded.
    for (rank, report) in framed.into_iter().enumerate() {
        let bytes =
            report.map_err(|e| ProcError::Protocol(format!("report of rank {rank}: {e}")))?;
        let msg = &bytes[STREAM_ENVELOPE_BYTES..];
        let mut c = Cursor::new(msg);
        match c.u8().map_err(ProcError::Protocol)? {
            MSG_RESULT => {
                let report: TransportStats = c.json().map_err(ProcError::Protocol)?;
                merged
                    .merge(&report)
                    .map_err(|e| ProcError::Protocol(format!("rank {rank}: {e}")))?;
                let output = TaskOutput::decode(c.rest())?;
                if output.tag() != tags[rank] {
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
    // Root-cause attribution: the first *primary* fault. Everything matching
    // the cascade shapes (`PeerClosed` at a rank waiting on the dead one, a
    // timeout induced by a stalled neighbour) is a consequence of the
    // primary, not a cause; when every report is a cascade, the first one.
    if let Some(root) = root_cause(&errors, |(_, m)| is_cascade_error(m)) {
        // Workers never publish telemetry (their registries die with them),
        // so the launcher classifies their failure reports into the
        // transport failure counters here.
        for (_, message) in &errors {
            super::note_failure_message(message);
        }
        let (rank, message) = errors.swap_remove(root);
        return Err(ProcError::Worker { rank, message });
    }
    guard.finish()?;

    // Both sides of every socket must have accounted the identical volume.
    if let Some((src, dst)) = merged.disagreement() {
        return Err(ProcError::AccountingMismatch { src, dst });
    }
    // Workers never publish telemetry themselves: their ledgers arrive in
    // their RESULT reports and are exported here, once, after the
    // cross-check — so the socket fabric reports through the same path as
    // the threaded mesh.
    super::publish_transport_stats(&merged);
    Ok((results, merged))
}

// ---------------------------------------------------------------------------
// Public task wrappers.
// ---------------------------------------------------------------------------

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

/// Ring all-reduce over the process fabric: one worker process per rank,
/// gradients and seeds shipped to each worker, results and counters shipped
/// back. Returns what [`launch`] does: one [`TaskOutput::AllReduce`] per
/// rank, in rank order, and the merged traffic. Bit-identical to
/// [`super::threaded_all_reduce`] for the same inputs and seeds (and, in
/// the tests, to the in-proc ring simulator).
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
) -> Result<(Vec<TaskOutput>, TransportStats), ProcError> {
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
    launch(tasks.collect(), None)
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
    // Only the parent writes: workers exit after their RESULT report and
    // never call flush.
    drop(dp_span);
    super::flush_run_artifacts();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snip_quant::stream_frame;

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

            // The START header around it: fabric dir, rank, world, plan.
            let start = |rank, world| Start {
                dir: PathBuf::from("snip-fab-test-\u{e9}"),
                rank,
                world,
                plan: ChaosPlan::kill(9, 1, 4).with_recv_deadline(Duration::from_millis(7)),
                task: task.clone(),
            };
            let bytes = start(2, 3).encode();
            let back = Start::decode(&bytes).expect("a well-formed START decodes");
            assert_eq!(back.encode(), bytes, "{task:?}");
            assert_eq!(
                (back.dir.clone(), back.rank, back.world),
                (start(2, 3).dir, 2, 3)
            );
            assert_eq!(back.plan, start(2, 3).plan);
            rejects_damage(&bytes, Start::decode);
            for (rank, world) in [(3, 3), (7, 3), (0, 0)] {
                assert!(
                    matches!(
                        Start::decode(&start(rank, world).encode()),
                        Err(ProcError::Protocol(_))
                    ),
                    "rank {rank} of world {world}"
                );
            }
        }
    }

    #[test]
    fn a_control_pipe_holds_exactly_one_intact_frame() {
        // What the reading end gets from a pipe holding `bytes`, then EOF.
        let pipe = |bytes: &[u8]| read_pipe(&mut &bytes[..]).expect("in-memory read");
        let framed = stream_frame(b"a worker's report");
        let mut written = Vec::new();
        write_frame(&mut written, b"a worker's report").expect("in-memory write");
        assert_eq!(written, framed);
        assert_eq!(unframe(&pipe(&framed)), Ok(&b"a worker's report"[..]));
        for cut in 0..framed.len() {
            assert!(
                unframe(&pipe(&framed[..cut])).is_err(),
                "prefix of {cut} bytes"
            );
        }
        // A stray write on the worker's stdout, before or after the report.
        let stray: &[u8] = b"hi\n";
        for polluted in [[stray, &framed].concat(), [&framed, stray].concat()] {
            assert!(unframe(&pipe(&polluted)).is_err());
        }
        let mut flipped = framed.clone();
        *flipped.last_mut().expect("non-empty") ^= 1;
        assert!(
            unframe(&pipe(&flipped)).is_err(),
            "the CRC catches a flipped byte"
        );
    }

    #[test]
    fn fabric_dir_is_owner_only() {
        use std::os::unix::fs::PermissionsExt;
        let dir = fabric_dir().expect("fabric dir");
        let _guard = DirGuard(dir.clone());
        let mode = std::fs::metadata(&dir)
            .expect("metadata")
            .permissions()
            .mode();
        assert_eq!(mode & 0o777, 0o700, "{}", dir.display());
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

    #[test]
    fn a_model_sized_result_round_trips_through_the_bulk_paths() {
        // ≈ 1 Mi parameters, with the bit patterns a lossy bulk copy would
        // alter: NaN payloads of both signs, −0.0, ±Inf, subnormals.
        let specials = [
            f32::from_bits(0x7FC1_2345),
            f32::from_bits(0xFF80_0001),
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
        ];
        let params: Vec<f32> = (0..(1 << 20) + 3)
            .map(|i| match i % 97 {
                k @ 0..=5 => specials[k],
                _ => (i as f32).sin() * 3.0,
            })
            .collect();
        let losses = vec![
            f64::from_bits(0x7FF8_0000_0000_BEEF),
            -0.0,
            f64::NEG_INFINITY,
            6.25,
        ];
        let output = TaskOutput::DpTrain {
            losses: losses.clone(),
            params: params.clone(),
        };
        let bytes = output.encode();
        assert_eq!(
            bytes.len(),
            1 + (4 + 8 * losses.len()) + (4 + 4 * params.len())
        );
        let TaskOutput::DpTrain {
            losses: back_losses,
            params: back_params,
        } = TaskOutput::decode(&bytes).expect("a well-formed output decodes")
        else {
            panic!("DpTrain decodes as DpTrain");
        };
        let bits32 = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let bits64 = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert!(
            bits32(&back_params) == bits32(&params),
            "params bits differ"
        );
        assert_eq!(bits64(&back_losses), bits64(&losses));
        for damaged in [
            bytes[..bytes.len() - 1].to_vec(),
            [&bytes[..], &[0]].concat(),
        ] {
            assert!(matches!(
                TaskOutput::decode(&damaged),
                Err(ProcError::Protocol(_))
            ));
        }

        // The worker's RESULT writes the output in place after its ledger:
        // the same bytes `encode` produces on its own.
        let stats = TransportStats::new(2);
        let result = report(&stats, &Ok(output));
        let mut c = Cursor::new(&result);
        assert_eq!(c.u8(), Ok(MSG_RESULT));
        let ledger: TransportStats = c.json().expect("ledger json");
        assert_eq!(ledger, stats);
        assert!(
            c.rest() == &bytes[..],
            "in-place RESULT differs from encode()"
        );
        let failed = report(&stats, &Err("boom".into()));
        assert_eq!(failed, [&[MSG_ERROR][..], b"boom"].concat());
    }
}
