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
//!    fabric directory (private to the user, mode `0700`, because a mesh
//!    listener trusts the rank hello of whoever connects), the rank, the
//!    world size, the chaos plan and the worker's own encoded [`Task`]
//!    (codec config as JSON, float payloads as raw bits, encoded straight
//!    from the caller's borrowed gradient; peers' data never crosses,
//!    unlike the threaded closures that share an address space);
//! 2. the worker binds its mesh listener in the fabric directory and builds
//!    the full socket mesh: it dials every lower rank (retrying until that
//!    rank's listener is bound, since nothing orders the workers' starts)
//!    and accepts every higher one, each stream prefixed by a 4-byte rank
//!    hello; a worker that cannot build its mesh reports `ERROR` with an
//!    empty ledger;
//! 3. it runs the task and writes one report to its stdout — `RESULT` (its
//!    endpoint's [`TransportStats`] as JSON, then its [`TaskOutput`]) or
//!    `ERROR` (the [`FailureClass`] of the first transport error its
//!    endpoint recorded, one byte, its ledger as JSON, then the failure
//!    text) — and exits. A `RESULT` is written in two passes and never
//!    held whole: the first writes the body into nothing, for its length
//!    and CRC, and the length is checked against the frame bound; the
//!    second writes the envelope, then the body again straight to stdout
//!    through the writer's stage buffer, a `DpTrain` output read from the
//!    trainer's parameter tensors in place. The pipe bytes are those of
//!    the buffered encoding ([`TaskOutput::encode`] after the ledger);
//! 4. one parent thread per worker decodes that report as it streams and
//!    hands the decoded, verified report to one channel, so the ranks'
//!    decodes overlap their transfers. A worker that exits without a
//!    report leaves an empty pipe; the parent then removes the fabric
//!    directory, so every peer still building the mesh (which can never
//!    form without that worker) fails at once and reports. The parent
//!    collects every report within `RESULT_TIMEOUT`, then judges: a
//!    worker without a report is the root cause, named by its rank; then a
//!    launch some worker never answered; then, in rank order, a malformed
//!    report or a ledger of the wrong shape ([`ProcError::Protocol`]);
//!    then the `ERROR` reports, counted and attributed to their root cause
//!    by their class; a run with none reaps the workers and checks that
//!    both sides of every link agree (`TransportStats::disagreement`;
//!    [`ProcError::AccountingMismatch`] names the first that does not).
//!    Whatever the verdict, the ledgers of every decoded report are added
//!    by `TransportStats::merge` and published, as the threaded driver
//!    publishes its ranks'.
//!
//! ## Decoded as it streams
//!
//! Every byte a worker exchanges — control messages and mesh frames alike —
//! is written with the workspace's field codec ([`snip_quant::wire`]:
//! [`Writer`], [`Fields`]) and read through its one stream-envelope reader.
//! Both ends read their pipe with [`read_frame`] — the worker its `START`,
//! each launcher thread its worker's report — so a report's raw bytes are
//! never held beside its decoded output, and a short, long, polluted or
//! damaged pipe is a typed error, never a message. [`Task::decode`] and
//! [`TaskOutput::decode`] read a bare encoding with the same codec.
//!
//! No library code a worker runs prints to stdout. A stray write would fail
//! the report's length, EOF or CRC check as a typed [`ProcError::Protocol`];
//! it cannot pass for a result. Each writer checks its frame's size against
//! [`snip_quant::STREAM_MAX_FRAME_BYTES`] before writing it: a `START` too
//! large for one frame fails the launch as [`ProcError::Launch`], and a
//! worker whose `RESULT` would not fit reports `ERROR` instead, naming the
//! size and the bound.
//!
//! Frames on mesh streams carry [`snip_quant::wire`]'s stream envelope —
//! a length prefix plus the CRC32 the hop's [`Writer`] took, so in-flight
//! corruption is a typed [`snip_quant::StreamError::Crc`] instead of a
//! silently damaged gradient. A dedicated reader thread per link reads each
//! frame straight from the buffered socket with [`read_stream_frame`]
//! (property-tested under adversarial chunking in
//! `quant/tests/wire_stream.rs`), which also keeps every socket drained so
//! ring steps can never deadlock on full kernel buffers.
//!
//! # Abort semantics
//!
//! As on threads (see the [transport docs](super)): a worker that panics or
//! exits closes its sockets — its fabric's `Drop` shuts them down, process
//! exit closes the rest — and the launcher reports the root cause by the
//! class each failing worker's `ERROR` report carries, never by its text.
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
//! `proc_all_reduce` returns the launch as it is. The benchmark pins the
//! fault-free delegations [`super::threaded_all_reduce`],
//! [`proc_all_reduce`] and [`proc_data_parallel_train`].
//!
//! # Equivalence contract
//!
//! The process backend is bit-identical to the threaded one and to the
//! oracle (see the [transport docs](super)), final DP model parameters
//! included. `tests/transport_proc.rs` pins it for every codec:
//! reduce-scatter under both policies and all-reduce, owned chunks, bits,
//! payload bytes and RNG streams, at ring sizes 2–5 and 8, and on a
//! 100 003-element payload whose frames span several `STAGE_BYTES`
//! buffers. `tests/chaos_harness.rs` pins that a delay-only schedule
//! changes none of it, on threads and on processes.
//! `tests/launch_memory.rs` pins that the launcher holds each rank's
//! output once.

use super::chaos::{ChaosFabric, ChaosPlan};
use super::fabric::{Fabric, FailureClass, TransportError};
use super::frame::Frame;
use super::{dp_train_loop, note_failure, root_cause, Endpoint, TransportStats};
use crate::collective::{QuantizePolicy, Wire};
use snip_core::{Trainer, TrainerConfig};
use snip_quant::wire::{
    decode_message, read_frame, read_stream_frame, FieldError, Fields, ReadError, Writer,
    STAGE_BYTES,
};
use snip_quant::{
    stream_envelope, stream_envelope_of, StreamError, STREAM_ENVELOPE_BYTES, STREAM_MAX_FRAME_BYTES,
};
use snip_tensor::rng::Rng;
use std::borrow::Cow;
use std::ffi::OsStr;
use std::io::{BufReader, ErrorKind, Read, Write};
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
        /// What its endpoint recorded; [`FailureClass::Task`] when nothing,
        /// or when the worker sent no report.
        class: FailureClass,
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
            ProcError::Worker { rank, message, .. } => write!(f, "rank {rank} failed: {message}"),
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

/// Writes one [`snip_quant::stream_frame`]: its envelope and body as two
/// writes, so the body is never copied.
fn write_frame(
    to: &mut impl Write,
    envelope: &[u8; STREAM_ENVELOPE_BYTES],
    body: &[u8],
) -> std::io::Result<()> {
    to.write_all(envelope)?;
    to.write_all(body)
}

/// A control message ready for its pipe: the stream envelope and the body
/// `w` wrote. The envelope's CRC is the one `w` took as it wrote, so the
/// body is hashed once, and its size is checked before anything is
/// written.
fn framed(w: Writer<Vec<u8>>) -> Result<([u8; STREAM_ENVELOPE_BYTES], Vec<u8>), String> {
    let (body, crc) = w.finish().map_err(|e| e.to_string())?;
    check_frame_len(body.len(), STREAM_MAX_FRAME_BYTES)?;
    Ok((stream_envelope_of(body.len(), crc), body))
}

/// The one size check on a control frame, made before it is written:
/// [`stream_envelope`] cannot frame a body above [`STREAM_MAX_FRAME_BYTES`],
/// and a `START` or a report that large is a typed error, not a panic.
/// Every caller passes that bound but the tests, which pass a smaller one.
fn check_frame_len(len: usize, bound: usize) -> Result<(), String> {
    if len > bound {
        return Err(format!(
            "a control frame of {len} bytes exceeds the stream bound of {bound} bytes"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tasks and their outputs.
// ---------------------------------------------------------------------------

/// Declares a control-plane message enum from one list: per variant its tag
/// byte, and per field its type and the [`Writer`]/[`Fields`] method that
/// moves it (`json` for serde-derived configuration, `f32s`/`f64s` for
/// float vectors as raw little-endian bits — so NaN payloads survive). The
/// enum, `tag`, `encode` and `decode` all expand from that list, so the
/// wire layout cannot drift from the type.
macro_rules! message_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident $(<$lt:lifetime>)? {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal { $($field:ident: $ty:ty => $codec:ident),* $(,)? }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum $name $(<$lt>)? {
            $($(#[$vmeta])* $variant { $($field: $ty),* }),*
        }

        impl $(<$lt>)? $name $(<$lt>)? {
            /// The byte that names the variant on the wire.
            fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag),*
                }
            }

            /// Appends the control-plane encoding to `w`: the variant's tag
            /// byte, then its fields in declaration order.
            fn write<W: Write>(&self, w: &mut Writer<W>) {
                w.u8(self.tag());
                match self {
                    $($name::$variant { $($field),* } => { $(w.$codec($field);)* })*
                }
            }

            /// The control-plane encoding on its own: `write` into a fresh
            /// buffer.
            ///
            /// # Panics
            ///
            /// Panics if a float vector holds more than `u32::MAX` values.
            pub fn encode(&self) -> Vec<u8> {
                let mut w = Writer::new(Vec::new());
                self.write(&mut w);
                w.finish().expect("every field fits its count").0
            }

            /// Reads one message from `f`, leaving whatever follows it.
            fn read<R: Read>(f: &mut Fields<R>) -> Result<Self, FieldError> {
                Ok(match f.u8()? {
                    $($tag => $name::$variant { $($field: <$ty>::from(f.$codec()?)),* },)*
                    other => return Err(format!("unknown tag {other}").into()),
                })
            }

            /// Decodes [`Self::encode`]'s bytes.
            ///
            /// # Errors
            ///
            /// [`ProcError::Protocol`] on truncated input, trailing bytes,
            /// an unknown tag or malformed embedded JSON — never a panic.
            pub fn decode(bytes: &[u8]) -> Result<Self, ProcError> {
                decode_message(bytes, Self::read)
                    .map_err(|e| ProcError::Protocol(format!("{}: {e}", stringify!($name))))
            }
        }
    };
}

message_enum! {
    /// What one rank worker is asked to do: one variant per task, carrying
    /// exactly that task's inputs. Ships to the worker inside `START`, which
    /// the launcher encodes straight from a borrowed gradient
    /// (`Cow::Borrowed`); a worker decodes its task owned.
    // One `Task` exists per rank per launch; boxing the config buys nothing.
    #[allow(clippy::large_enum_variant)]
    pub enum Task<'a> {
        /// Ring reduce-scatter of this rank's `grad` through `wire` under
        /// `policy`; the rank's wire RNG stream starts from `seed`.
        ReduceScatter = 0 {
            wire: Wire => json, policy: QuantizePolicy => json, seed: u64 => u64,
            grad: Cow<'a, [f32]> => f32s,
        },
        /// Ring all-reduce (reduce-scatter + all-gather); same inputs.
        AllReduce = 1 {
            wire: Wire => json, policy: QuantizePolicy => json, seed: u64 => u64,
            grad: Cow<'a, [f32]> => f32s,
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
struct Start<'a> {
    dir: PathBuf,
    rank: usize,
    world: usize,
    plan: ChaosPlan,
    task: Task<'a>,
}

impl Start<'_> {
    fn write(&self) -> Writer<Vec<u8>> {
        let mut w = Writer::new(Vec::new());
        w.u8(MSG_START);
        w.bytes(self.dir.as_os_str().as_bytes());
        w.usize(&self.rank);
        w.usize(&self.world);
        w.json(&self.plan);
        self.task.write(&mut w);
        w
    }

    /// Reads what [`Start::write`] wrote; a rank outside the world is as
    /// malformed as a truncated message.
    fn read<R: Read>(f: &mut Fields<R>) -> Result<Start<'static>, FieldError> {
        if f.u8()? != MSG_START {
            return Err("not a START message".to_string().into());
        }
        // Fields are read in the order they are written.
        let start = Start {
            dir: PathBuf::from(OsStr::from_bytes(&f.bytes()?)),
            rank: f.usize()?,
            world: f.usize()?,
            plan: f.json()?,
            task: Task::read(f)?,
        };
        if start.rank >= start.world {
            let (rank, world) = (start.rank, start.world);
            return Err(format!("rank {rank} outside world {world}").into());
        }
        Ok(start)
    }
}

/// A worker's report as the launcher reads it: its ledger, and the
/// RESULT's output or the ERROR's failure class and text.
#[derive(Debug)]
struct Report {
    ledger: TransportStats,
    outcome: Result<TaskOutput, (FailureClass, String)>,
}

impl Report {
    /// Reads what [`result_report`] or [`error_report`] wrote.
    fn read<R: Read>(f: &mut Fields<R>) -> Result<Report, FieldError> {
        Ok(match f.u8()? {
            MSG_RESULT => Report {
                ledger: f.json()?,
                outcome: Ok(TaskOutput::read(f)?),
            },
            MSG_ERROR => {
                let byte = f.u8()?;
                let class = FailureClass::ALL.get(usize::from(byte));
                let class = *class.ok_or_else(|| format!("unknown failure class {byte}"))?;
                let ledger = f.json()?;
                let message = String::from_utf8_lossy(&f.rest()?).into_owned();
                Report {
                    ledger,
                    outcome: Err((class, message)),
                }
            }
            other => return Err(format!("unexpected control tag {other}").into()),
        })
    }
}

// ---------------------------------------------------------------------------
// The socket fabric.
// ---------------------------------------------------------------------------

/// What a link's reader thread hands the owning rank: a frame whose CRC
/// matched, or the typed defect that ended the stream.
type LinkFrame = Result<Frame, TransportError>;

/// The process backend of [`Fabric`]: one Unix-domain socket per rank pair,
/// frames in the stream envelope, and a reader thread per link reading each
/// frame straight from the socket (and keeping it drained, so bulk ring
/// steps cannot deadlock on full kernel buffers).
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
    /// `deadline` for a frame. Building fails at once if `dir` is removed.
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
            let mut stream = connect_retry(dir, &path, MESH_TIMEOUT)
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
            let mut stream = accept_deadline(&listener, dir, accept_by)
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

/// One link's read side: reads each frame, envelope and body, straight
/// from the buffered socket ([`read_stream_frame`]) and forwards it (or the
/// typed defect that ended the stream) to the owning rank. Exits on EOF or
/// error; a clean EOF on a frame boundary just drops the channel, which the
/// owner observes as `PeerClosed`.
fn reader_loop(stream: UnixStream, peer: usize, tx: std::sync::mpsc::Sender<LinkFrame>) {
    let mut from = BufReader::with_capacity(STAGE_BYTES, stream);
    loop {
        let frame = match read_stream_frame(&mut from) {
            Ok(Some((bytes, crc))) => Ok(Frame { bytes, crc }),
            Ok(None) => return,
            Err(ReadError::Stream(error)) => Err(TransportError::Stream { src: peer, error }),
            Err(ReadError::Io(e)) => Err(io_err(peer, &e)),
        };
        let failed = frame.is_err();
        // Stop draining once the owner is gone or the stream is broken.
        if tx.send(frame).is_err() || failed {
            return;
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

    fn send_frame(&mut self, dst: usize, frame: Frame) -> Result<u64, TransportError> {
        let Some(writer) = self.writers.get_mut(dst).and_then(Option::as_mut) else {
            return Err(TransportError::PeerClosed { rank: dst });
        };
        let wire = (STREAM_ENVELOPE_BYTES + frame.len()) as u64;
        // The envelope carries the CRC the hop's writer took: no second pass.
        let envelope = stream_envelope_of(frame.len(), frame.crc);
        write_frame(writer, &envelope, &frame).map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                TransportError::PeerClosed { rank: dst }
            }
            _ => io_err(dst, &e),
        })?;
        Ok(wire)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Frame, u64), TransportError> {
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

/// The error of a mesh step whose fabric directory is gone: the launcher
/// removes it to abort a launch that lost a worker before the mesh formed.
fn fabric_gone(dir: &Path) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::NotFound,
        format!("the launch was aborted: {} is gone", dir.display()),
    )
}

/// Dials the listener at `path` in the fabric directory `dir`, retrying
/// until it is bound, `timeout` passes or `dir` is removed.
fn connect_retry(dir: &Path, path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retriable = matches!(
                    e.kind(),
                    ErrorKind::NotFound | ErrorKind::ConnectionRefused | ErrorKind::WouldBlock
                );
                if !dir.is_dir() {
                    return Err(fabric_gone(dir));
                }
                if !retriable || Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Accepts one connection on the listener bound in the fabric directory
/// `dir`, waiting until `deadline` or until `dir` is removed.
fn accept_deadline(
    listener: &UnixListener,
    dir: &Path,
    deadline: Instant,
) -> std::io::Result<UnixStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if !dir.is_dir() {
                    return Err(fabric_gone(dir));
                }
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
    let start = read_frame(std::io::stdin().lock(), Start::read)
        .map_err(|e| format!("malformed START: {e}"))?;
    // Chaos-harness hook: die right after START, exercising the launcher's
    // fail-fast path for a worker that never reports. Workers inherit the
    // launcher's environment, so a test sets this around one launch.
    if std::env::var(ENV_EXIT_AT_BOOT).ok().as_deref() == Some(&start.rank.to_string()) {
        std::process::exit(17);
    }

    // Every worker's fabric is decorated; a launch without faults ships the
    // pass-through plan, which is bit- and counter-identical to bare sockets.
    // A mesh that cannot be built is reported like a failed task, with the
    // empty ledger of a worker that sent nothing.
    let deadline = start.plan.recv_deadline();
    let fabric = match SocketFabric::connect(&start.dir, start.rank, start.world, deadline) {
        Ok(fabric) => fabric,
        Err(message) => {
            let stats = TransportStats::new(start.world);
            return report(&stats, Err(message), FailureClass::Task);
        }
    };
    let mut ep = Endpoint::new(ChaosFabric::new(fabric, start.plan));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_held(&mut ep, &start.task)
    }))
    .unwrap_or_else(|panic| {
        let text = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic");
        Err(format!("task panicked: {text}"))
    });
    // Drop the endpoint (closing the mesh) only after the report is
    // written: peers may still be draining our buffered frames.
    let class = FailureClass::of(ep.failure.as_ref());
    let reported = report(&ep.stats(), outcome, class);
    drop(ep);
    reported
}

/// Sends this worker's report to its stdout; the task's failure, if any,
/// as the worker's own.
fn report(
    stats: &TransportStats,
    outcome: Result<Held, String>,
    class: FailureClass,
) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    let failure = send_report(&mut stdout, stats, outcome, class, STREAM_MAX_FRAME_BYTES)
        .map_err(|e| format!("writing the report: {e}"))?;
    failure.map_or(Ok(()), Err)
}

/// Writes a worker's one report to `to` and flushes it: `RESULT` when the
/// task succeeded and its report fits `bound` bytes, else `ERROR` with
/// `class` and the failure text, which is returned.
///
/// A `RESULT` is streamed, not built: one pass writes its body into
/// nothing for its length and CRC, and only a body within `bound` is
/// written — its envelope, then the body again, straight from the output
/// (a trainer's parameters read in place) through the writer's stage
/// buffer. That second pass hashes as it writes, and a body that does not
/// hash to its envelope's CRC is an error.
///
/// # Errors
///
/// A failed write to `to`, or a `RESULT` whose two passes disagree.
fn send_report(
    to: &mut impl Write,
    stats: &TransportStats,
    outcome: Result<Held, String>,
    class: FailureClass,
    bound: usize,
) -> std::io::Result<Option<String>> {
    let envelope = outcome.and_then(|held| {
        let mut measured = Writer::new(std::io::sink());
        write_result(&mut measured, stats, &held);
        let len = usize::try_from(measured.written()).unwrap_or(usize::MAX);
        let (_, crc) = measured.finish().map_err(|e| format!("task output: {e}"))?;
        check_frame_len(len, bound).map_err(|e| format!("task output: {e}"))?;
        Ok((len, crc, held))
    });
    match envelope {
        Ok((len, expect, held)) => {
            to.write_all(&stream_envelope_of(len, expect))?;
            let mut body = Writer::new(&mut *to);
            write_result(&mut body, stats, &held);
            let (_, got) = body.finish()?;
            if got != expect {
                return Err(std::io::Error::other(StreamError::Crc { expect, got }));
            }
            to.flush()?;
            Ok(None)
        }
        Err(message) => {
            let report = error_report(class, stats, &message);
            write_frame(to, &stream_envelope(&report), &report)?;
            to.flush()?;
            Ok(Some(message))
        }
    }
}

/// Writes a `RESULT` body: its ledger as JSON, then the output.
fn write_result<W: Write>(w: &mut Writer<W>, stats: &TransportStats, held: &Held) {
    w.u8(MSG_RESULT);
    w.json(stats);
    held.write(w);
}

/// The body of a worker's `ERROR` report: its failure class as one byte,
/// its ledger as JSON, then the failure text.
fn error_report(class: FailureClass, stats: &TransportStats, message: &str) -> Vec<u8> {
    let mut msg = Writer::new(Vec::new());
    msg.u8(MSG_ERROR);
    msg.u8(class as u8);
    msg.json(stats);
    // Writing into a `Vec` fails only on a length beyond `u32`, which a
    // ledger of a few counters per link never reaches.
    let (mut body, _) = msg.finish().expect("a ledger fits its length prefix");
    body.extend_from_slice(message.as_bytes());
    body
}

/// A task's result as a worker holds it until its report is written: a
/// [`Task::DpTrain`] keeps its trainer, whose parameters the report reads
/// in place rather than from a flattened copy.
// One `Held` exists per worker; boxing the trainer buys nothing.
#[allow(clippy::large_enum_variant)]
enum Held {
    Output(TaskOutput),
    DpTrain { losses: Vec<f64>, trainer: Trainer },
}

impl Held {
    /// The [`TaskOutput`] this stands for, a trainer's parameters
    /// flattened in visit order.
    fn into_output(self) -> TaskOutput {
        match self {
            Held::Output(output) => output,
            Held::DpTrain { losses, trainer } => {
                let params = trainer.model.params();
                let mut flat = Vec::with_capacity(params.iter().map(|p| p.numel()).sum());
                for p in params {
                    flat.extend_from_slice(p.value().as_slice());
                }
                TaskOutput::DpTrain {
                    losses,
                    params: flat,
                }
            }
        }
    }

    /// Writes what [`TaskOutput::write`] writes for [`Held::into_output`],
    /// without building it.
    fn write<W: Write>(&self, w: &mut Writer<W>) {
        match self {
            Held::Output(output) => output.write(w),
            Held::DpTrain { losses, trainer } => {
                let params = trainer.model.params();
                let parts: Vec<&[f32]> = params.iter().map(|p| p.value().as_slice()).collect();
                // The variant's tag, named by an empty value of it.
                let dp_train = TaskOutput::DpTrain {
                    losses: Vec::new(),
                    params: Vec::new(),
                };
                w.u8(dp_train.tag());
                w.f64s(losses);
                w.f32s_joined(&parts);
            }
        }
    }
}

/// Runs one rank's [`Task`] over an already-connected endpoint — the single
/// place task bodies live, generic over the fabric.
///
/// # Errors
///
/// The failure as text, a [`TransportError`] in its `Display` wording. The
/// text is for people: drivers classify a failed rank by the error its
/// endpoint recorded ([`FailureClass::of`]), never by this message.
pub fn run_task<F: Fabric>(ep: &mut Endpoint<F>, task: &Task<'_>) -> Result<TaskOutput, String> {
    run_held(ep, task).map(Held::into_output)
}

/// [`run_task`], its result held for a report.
fn run_held<F: Fabric>(ep: &mut Endpoint<F>, task: &Task<'_>) -> Result<Held, String> {
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
            Ok(Held::Output(TaskOutput::ReduceScatter {
                lo: chunk.lo,
                hi: chunk.hi,
                rng_fingerprint: rng.next_u64(),
                data: chunk.data,
            }))
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
            Ok(Held::Output(TaskOutput::AllReduce {
                rng_fingerprint: rng.next_u64(),
                data,
            }))
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
            Ok(Held::DpTrain { losses, trainer })
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
                    class: FailureClass::Task,
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
    tasks: Vec<Task<'_>>,
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
    let collected = std::thread::scope(|scope| {
        let mut guard = WorkerGuard(Vec::with_capacity(world));
        let (tx, reports) = channel();
        for (rank, task) in tasks.into_iter().enumerate() {
            let start = Start {
                dir: dir.clone(),
                rank,
                world,
                plan: plan.clone(),
                task,
            };
            let (envelope, start) = framed(start.write())
                .map_err(|e| ProcError::Launch(format!("START of rank {rank}: {e}")))?;
            let mut child = Command::new(&exe)
                .env(ENV_WORKER, "1")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| ProcError::Launch(format!("spawning rank {rank}: {e}")))?;
            let mut stdin = child.stdin.take().expect("stdin is piped");
            let stdout = child.stdout.take().expect("stdout is piped");
            guard.0.push(child);
            let tx = tx.clone();
            scope.spawn(move || {
                let written = write_frame(&mut stdin, &envelope, &start);
                // EOF after START: it is all the worker reads.
                drop((stdin, start));

                // Each rank's report is decoded here as it streams, so the
                // ranks' decodes and CRC passes overlap their transfers.
                let report = written
                    .map_err(FieldError::Io)
                    .and_then(|()| read_frame(stdout, Report::read));
                let _ = tx.send((rank, report));
            });
        }
        // Collect every rank's report before judging the run, so a failure
        // is attributed to its root cause (one dead rank makes every peer
        // blocked on it fail with a secondary "closed its link
        // mid-collective" cascade) and the traffic of every report that
        // arrives is published.
        let deadline = Instant::now() + RESULT_TIMEOUT;
        let mut received = Vec::with_capacity(world);
        for _ in 0..world {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok((rank, report)) = reports.recv_timeout(wait) else {
                // Dropping the guard kills the workers still running, so the
                // scope can join their threads.
                return Ok((None, received));
            };
            if matches!(report, Err(FieldError::Empty | FieldError::Io(_))) {
                // A worker that died before joining the mesh leaves its
                // peers waiting for it until `MESH_TIMEOUT`. Without the
                // fabric directory no listener can be bound or dialled, so
                // every peer still building the mesh fails at once and
                // reports; one already past it is not affected.
                let _ = std::fs::remove_dir_all(&dir);
            }
            received.push((rank, report));
        }
        Ok((Some(guard), received))
    })?;
    let (guard, received) = collected;
    let mut merged = TransportStats::new(world);
    let judged = judge(guard, received, &tags, &mut merged);
    // Workers never publish telemetry (their registries die with them):
    // their ledgers arrive in their reports and are exported here, once,
    // whether or not the run failed — as the threaded driver publishes its
    // ranks' — so the socket fabric reports through the same path.
    super::publish_transport_stats(&merged);
    judged.map(|results| (results, merged))
}

/// Judges a launch from the reports its workers sent — `guard` is `None`
/// when some worker never answered in time — adding every decoded report's
/// ledger to `merged` first. A worker that exited without a report is a
/// root cause by itself; then a launch some worker never answered; then, in
/// rank order, a malformed report, a ledger of the wrong shape or an output
/// of another task; then the root cause among the `ERROR` reports; then a
/// worker that exited unsuccessfully; then a link whose two ends disagree.
fn judge(
    guard: Option<WorkerGuard>,
    mut reports: Vec<(usize, Result<Report, FieldError>)>,
    tags: &[u8],
    merged: &mut TransportStats,
) -> Result<Vec<TaskOutput>, ProcError> {
    reports.sort_by_key(|&(rank, _)| rank);
    let mut results: Vec<TaskOutput> = Vec::with_capacity(tags.len());
    let mut errors: Vec<(usize, FailureClass, String)> = Vec::new();
    let mut malformed = None;
    let mut lost = None;
    for (rank, report) in reports {
        let report = match report {
            Ok(report) => report,
            Err(FieldError::Malformed(e)) => {
                malformed.get_or_insert(format!("report of rank {rank}: {e}"));
                continue;
            }
            Err(FieldError::Empty) => {
                lost.get_or_insert((rank, "worker exited without a report".to_string()));
                continue;
            }
            Err(FieldError::Io(e)) => {
                lost.get_or_insert((rank, format!("worker pipe failed: {e}")));
                continue;
            }
        };
        if let Err(e) = merged.merge(&report.ledger) {
            malformed.get_or_insert(format!("rank {rank}: {e}"));
            continue;
        }
        match report.outcome {
            Ok(output) if output.tag() != tags[rank] => {
                malformed.get_or_insert(format!(
                    "rank {rank} answered its task with another task's output"
                ));
            }
            Ok(output) => results.push(output),
            Err((class, message)) => errors.push((rank, class, message)),
        }
    }
    // The launcher counts its workers' failures, one per `ERROR` report.
    for (_, class, _) in &errors {
        note_failure(*class);
    }
    if let Some((rank, message)) = lost {
        return Err(ProcError::Worker {
            rank,
            class: FailureClass::Task,
            message,
        });
    }
    let Some(mut guard) = guard else {
        return Err(ProcError::Launch(format!(
            "no report from every worker in {RESULT_TIMEOUT:?}"
        )));
    };
    if let Some(e) = malformed {
        return Err(ProcError::Protocol(e));
    }
    // The root cause is the first worker whose class is not a cascade of
    // another's fault (`PeerClosed` at a rank waiting on the dead one).
    if let Some(root) = root_cause(&errors, |(_, class, _)| class.is_cascade()) {
        let (rank, class, message) = errors.swap_remove(root);
        return Err(ProcError::Worker {
            rank,
            class,
            message,
        });
    }
    guard.finish()?;
    // Both sides of every socket must have accounted the identical volume.
    if let Some((src, dst)) = merged.disagreement() {
        return Err(ProcError::AccountingMismatch { src, dst });
    }
    Ok(results)
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
            grad: grad.into(),
        });
    launch(tasks.collect(), None)
}

/// Synchronous data-parallel training over the process fabric: each worker
/// builds its own [`Trainer`] from its config and runs the same step loop,
/// with the same wire randomness, as [`super::data_parallel_train`], so the
/// two backends produce bit-identical losses and final parameters.
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
    use snip_quant::{stream_frame, STREAM_PREFIX_BYTES};

    /// [`Start::read`] over a bare encoding, as [`Task::decode`] reads one.
    fn decode_start(bytes: &[u8]) -> Result<Start<'static>, ProcError> {
        decode_message(bytes, Start::read).map_err(|e| ProcError::Protocol(e.to_string()))
    }

    impl Start<'_> {
        /// The bare encoding [`Start::write`] produces.
        fn encode(&self) -> Vec<u8> {
            self.write().finish().expect("in-memory write").0
        }
    }

    /// The body of a RESULT report, buffered: the oracle a streamed report
    /// ([`send_report`]) must equal byte for byte.
    fn result_body(stats: &TransportStats, output: &TaskOutput) -> Vec<u8> {
        let mut msg = Writer::new(Vec::new());
        msg.u8(MSG_RESULT);
        msg.json(stats);
        output.write(&mut msg);
        msg.finish().expect("in-memory write").0
    }

    /// What [`send_report`] writes for `outcome` under `bound`, and the
    /// failure it returns.
    fn sent(outcome: Result<Held, String>, bound: usize) -> (Vec<u8>, Option<String>) {
        let mut pipe = Vec::new();
        let stats = ledger();
        let failure = send_report(&mut pipe, &stats, outcome, FailureClass::Io, bound)
            .expect("in-memory write");
        (pipe, failure)
    }

    /// A ledger with traffic on two links.
    fn ledger() -> TransportStats {
        let mut stats = TransportStats::new(2);
        stats.tx[1].record(4096, 12);
        stats.rx[2].record(4096, 12);
        stats
    }

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

    fn tasks() -> Vec<Task<'static>> {
        let (policy, seed) = (QuantizePolicy::FinalOnly, u64::MAX - 6);
        let mut all = Vec::new();
        for grad in payloads() {
            for wire in [Wire::exact(), Wire::fp4(16), Wire::mxfp4()] {
                all.push(Task::ReduceScatter {
                    wire,
                    policy,
                    seed,
                    grad: grad.clone().into(),
                });
                all.push(Task::AllReduce {
                    wire,
                    policy: QuantizePolicy::EveryHop,
                    seed: 0,
                    grad: grad.clone().into(),
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
            let back = decode_start(&bytes).expect("a well-formed START decodes");
            assert_eq!(back.encode(), bytes, "{task:?}");
            assert_eq!(
                (back.dir.clone(), back.rank, back.world),
                (start(2, 3).dir, 2, 3)
            );
            assert_eq!(back.plan, start(2, 3).plan);
            rejects_damage(&bytes, decode_start);
            for (rank, world) in [(3, 3), (7, 3), (0, 0)] {
                assert!(
                    matches!(
                        decode_start(&start(rank, world).encode()),
                        Err(ProcError::Protocol(_))
                    ),
                    "rank {rank} of world {world}"
                );
            }
        }
    }

    /// A START whose wire codec no constructor could build — an integer
    /// width outside `2..=8`, scaled or stochastic BF16, a non-power-of-two
    /// RHT block, an outlier fraction outside `[0, 1]` — fails at decode
    /// as a protocol error naming the defect, never as a worker panic.
    #[test]
    fn forged_codecs_are_protocol_errors() {
        let e2m1 = serde_json::to_string(&snip_quant::format::FloatFormat::e2m1()).unwrap();
        let bf16 = serde_json::to_string(&snip_quant::format::FloatFormat::bf16()).unwrap();
        let forgeries = [
            (
                Wire::int8(16),
                r#"{"Int":{"bits":8}}"#,
                r#"{"Int":{"bits":12}}"#,
                "width 12",
            ),
            (
                Wire::int8(16),
                r#"{"Int":{"bits":8}}"#,
                r#"{"Int":{"bits":0}}"#,
                "width 0",
            ),
            (Wire::fp4(16), e2m1.as_str(), bf16.as_str(), "no code table"),
            (
                Wire::bf16(),
                r#""Nearest""#,
                r#""Stochastic""#,
                "nearest only",
            ),
            (
                Wire::rht_fp4(16, 3),
                r#""block":16"#,
                r#""block":24"#,
                "power of two",
            ),
            (Wire::outlier_fp4(16, 0.25), "0.25", "1.5", "outside [0, 1]"),
        ];
        let grad = [0.5f32, -1.0, 2.0];
        // A ReduceScatter task whose wire is the JSON text `wire`.
        let encode = |wire: &str| {
            let mut w = Writer::new(Vec::new());
            w.u8(0);
            w.bytes(wire.as_bytes());
            w.json(&QuantizePolicy::EveryHop);
            w.u64(&7);
            w.f32s(&grad);
            w.finish().expect("in-memory write").0
        };
        for (wire, from, to, defect) in forgeries {
            let json = serde_json::to_string(&wire).unwrap();
            let task = Task::ReduceScatter {
                wire,
                policy: QuantizePolicy::EveryHop,
                seed: 7,
                grad: grad[..].into(),
            };
            assert_eq!(encode(&json), task.encode(), "{json}");
            assert!(json.contains(from), "{json} lacks {from}");
            match Task::decode(&encode(&json.replace(from, to))) {
                Err(ProcError::Protocol(m)) => assert!(m.contains(defect), "{m} lacks {defect}"),
                other => panic!("{} with {to}: {other:?}", wire.label()),
            }
        }
    }

    #[test]
    fn a_control_pipe_holds_exactly_one_intact_frame() {
        // What the reading end decodes from a pipe holding `bytes`, then EOF:
        // the whole body, as the ERROR report's text is read.
        let pipe = |bytes: &[u8]| read_frame(bytes, |f| f.rest());
        let framed = stream_frame(b"a worker's report");
        let mut written = Vec::new();
        let body = b"a worker's report";
        write_frame(&mut written, &stream_envelope(body), body).expect("in-memory write");
        assert_eq!(written, framed);
        assert_eq!(pipe(&framed).expect("intact"), b"a worker's report");
        assert!(matches!(pipe(&[]), Err(FieldError::Empty)));
        for cut in 1..framed.len() {
            assert!(
                matches!(pipe(&framed[..cut]), Err(FieldError::Malformed(_))),
                "prefix of {cut} bytes"
            );
        }
        // A stray write on the worker's stdout, before or after the report.
        let stray: &[u8] = b"hi\n";
        for polluted in [[stray, &framed].concat(), [&framed, stray].concat()] {
            assert!(matches!(pipe(&polluted), Err(FieldError::Malformed(_))));
        }
        let mut flipped = framed.clone();
        *flipped.last_mut().expect("non-empty") ^= 1;
        assert!(
            matches!(pipe(&flipped), Err(FieldError::Malformed(m)) if m.contains("crc mismatch")),
            "the CRC catches a flipped byte"
        );
    }

    /// A `Read` over `bytes` that returns the next of `sizes` bytes per call
    /// (cycling), as a pipe returns whatever its writer has sent so far.
    struct Trickle<'a> {
        bytes: &'a [u8],
        sizes: Vec<usize>,
        call: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let want = self.sizes[self.call % self.sizes.len()];
            self.call += 1;
            let n = want.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// One byte per read, and seeded random splits from 1 byte to past the
    /// stage buffer.
    fn splits(seed: u64) -> Vec<Vec<usize>> {
        let mut rng = Rng::seed_from(seed);
        let random = (0..31).map(|_| 1 + (rng.next_u64() % 70_000) as usize);
        vec![vec![1], random.collect()]
    }

    #[test]
    fn split_reads_decode_to_the_whole_buffer_message() {
        let start = |task| Start {
            dir: PathBuf::from("snip-fab-split"),
            rank: 1,
            world: 2,
            plan: ChaosPlan::none(3),
            task,
        };
        // Outputs big enough to cross the stage buffer, NaN payloads in both
        // float widths.
        let nan32 = f32::from_bits(0x7FA1_2345);
        let nan64 = f64::from_bits(0xFFF0_0000_0000_0BAD);
        let big: Vec<f32> = (0..40_000)
            .map(|i| if i % 9 == 0 { nan32 } else { i as f32 })
            .collect();
        let mut all_outputs = outputs();
        all_outputs.push(TaskOutput::DpTrain {
            losses: vec![nan64, 1.5, -0.0],
            params: big.clone(),
        });
        all_outputs.push(TaskOutput::AllReduce {
            rng_fingerprint: 5,
            data: big,
        });
        let stats = TransportStats::new(2);
        for (seed, task) in tasks().into_iter().enumerate() {
            let body = start(task).encode();
            let framed = stream_frame(&body);
            let whole = read_frame(&framed[..], Start::read).expect("whole START");
            assert_eq!(whole.encode(), body);
            for sizes in splits(seed as u64) {
                let pipe = Trickle {
                    bytes: &framed,
                    sizes,
                    call: 0,
                };
                let split = read_frame(pipe, Start::read).expect("split START");
                assert_eq!(split.encode(), body);
            }
        }
        for (seed, output) in all_outputs.into_iter().enumerate() {
            let body = result_body(&stats, &output);
            let framed = stream_frame(&body);
            let whole = read_frame(&framed[..], Report::read).expect("whole report");
            for sizes in splits(100 + seed as u64) {
                let pipe = Trickle {
                    bytes: &framed,
                    sizes,
                    call: 0,
                };
                let split = read_frame(pipe, Report::read).expect("split report");
                for report in [&whole, &split] {
                    let Report {
                        ledger,
                        outcome: Ok(back),
                    } = report
                    else {
                        panic!("RESULT decodes as RESULT");
                    };
                    assert_eq!(ledger, &stats);
                    // Bits, not `PartialEq`: NaN payloads must survive.
                    assert_eq!(back.encode(), output.encode(), "{output:?}");
                }
            }
        }
        // An ERROR carries its worker's ledger too.
        let mut ledger = TransportStats::new(3);
        ledger.tx[5].record(64, 8);
        ledger.rx[6].record(16, 8);
        for class in FailureClass::ALL {
            let pipe = Trickle {
                bytes: &stream_frame(&error_report(class, &ledger, "boom \u{e9}")),
                sizes: vec![1],
                call: 0,
            };
            let report = read_frame(pipe, Report::read).expect("ERROR decodes");
            assert_eq!(report.ledger, ledger);
            assert!(matches!(report.outcome, Err((c, m)) if c == class && m == "boom \u{e9}"));
        }
        let unknown = [MSG_ERROR, FailureClass::ALL.len() as u8];
        assert!(matches!(
            read_frame(&stream_frame(&unknown)[..], Report::read),
            Err(FieldError::Malformed(m)) if m.contains("unknown failure class 6")
        ));
    }

    #[test]
    fn a_count_beyond_the_message_is_rejected_before_allocating() {
        // An AllReduce output declaring u32::MAX floats (16 GiB) with none
        // of them present: the count is judged against the bytes left
        // before `Vec::with_capacity` could see it.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 12]);
        match TaskOutput::decode(&bytes) {
            Err(ProcError::Protocol(m)) => assert!(
                m.contains("4294967295 values of 4 bytes declared, 12 bytes left"),
                "{m}"
            ),
            other => panic!("decoded {other:?}"),
        }
        let mut report = Writer::new(vec![MSG_RESULT]);
        report.json(&TransportStats::new(2));
        let mut report = report.finish().expect("in-memory write").0;
        report.extend_from_slice(&bytes);
        let framed = stream_frame(&report);
        assert!(matches!(
            read_frame(&framed[..], Report::read),
            Err(FieldError::Malformed(m)) if m.contains("values of 4 bytes declared")
        ));
    }

    #[test]
    fn no_output_escapes_a_frame_that_fails_length_eof_or_crc() {
        let output = TaskOutput::DpTrain {
            losses: vec![2.5],
            params: vec![1.0, f32::from_bits(0x7FC0_0001)],
        };
        let body = result_body(&TransportStats::new(2), &output);
        let framed = stream_frame(&body);
        assert!(read_frame(&framed[..], Report::read).is_ok());
        let set_len = |bytes: &mut Vec<u8>, len: usize| {
            bytes[..STREAM_PREFIX_BYTES].copy_from_slice(&(len as u32).to_le_bytes());
        };
        let verdict = |bytes: &[u8]| match read_frame(bytes, Report::read) {
            Ok(report) => panic!("a failed frame released {report:?}"),
            Err(e) => e.to_string(),
        };
        // The body decodes in full, but the envelope declared one byte more
        // (the pipe holds it, so only the length check can object).
        let mut long = framed.clone();
        set_len(&mut long, body.len() + 1);
        long.push(0);
        assert!(verdict(&long).contains("1 bytes left after the message"));
        // One byte less: the message runs out of frame.
        let mut short = framed.clone();
        set_len(&mut short, body.len() - 1);
        assert!(verdict(&short).contains("2 values of 4 bytes declared, 7 bytes left"));
        // An intact frame with a byte after it fails at EOF, before the CRC
        // is consulted — here the CRC is wrong too.
        let mut trailing = framed.clone();
        trailing[STREAM_PREFIX_BYTES] ^= 1;
        trailing.push(b'\n');
        assert!(verdict(&trailing).contains("stray bytes after the frame"));
        trailing.pop();
        assert!(verdict(&trailing).contains("crc mismatch"));
        // A flipped payload bit decodes to a plausible output; the CRC
        // withholds it.
        let mut flipped = framed.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x40;
        assert!(verdict(&flipped).contains("crc mismatch"));
        // An oversized prefix is judged before anything else is read.
        let mut oversize = framed;
        set_len(&mut oversize, STREAM_MAX_FRAME_BYTES + 1);
        assert!(verdict(&oversize).contains("exceeds the sanity bound"));
    }

    #[test]
    fn an_oversize_control_frame_is_refused_before_it_is_written() {
        let max = STREAM_MAX_FRAME_BYTES;
        assert_eq!(check_frame_len(max, max), Ok(()));
        let refused = check_frame_len(max + 1, max).expect_err("over the bound");
        assert!(
            refused.contains(&(max + 1).to_string()) && refused.contains(&max.to_string()),
            "{refused}"
        );

        // A RESULT one byte over the bound is reported as an ERROR naming
        // its size and the bound, and the pipe holds that frame alone: not
        // a byte of the RESULT went out before it.
        let output = TaskOutput::AllReduce {
            rng_fingerprint: 9,
            data: vec![0.5; 1000],
        };
        let len = result_body(&ledger(), &output).len();
        let (pipe, failure) = sent(Ok(Held::Output(output.clone())), len - 1);
        let failure = failure.expect("an oversize RESULT fails the worker");
        assert!(
            failure.contains(&format!("{len} bytes"))
                && failure.contains(&format!("{} bytes", len - 1)),
            "{failure}"
        );
        let report = read_frame(&pipe[..], Report::read).expect("one intact ERROR frame");
        assert_eq!(report.ledger, ledger());
        assert!(matches!(report.outcome, Err((FailureClass::Io, m)) if m == failure));
        // At the bound it is a RESULT.
        assert_eq!(sent(Ok(Held::Output(output)), len).1, None);
    }

    #[test]
    fn a_streamed_result_is_the_buffered_frame_byte_for_byte() {
        // Outputs across the stage buffer, and a trainer whose parameters
        // are read in place.
        let mut all = outputs();
        all.push(TaskOutput::DpTrain {
            losses: vec![f64::from_bits(0xFFF0_0000_0000_0BAD), 2.5],
            params: (0..70_001).map(|i| i as f32 * 0.5 - 9.0).collect(),
        });
        for output in all {
            let (pipe, failure) = sent(Ok(Held::Output(output.clone())), STREAM_MAX_FRAME_BYTES);
            assert_eq!(failure, None);
            assert!(
                pipe == stream_frame(&result_body(&ledger(), &output)),
                "{output:?}"
            );
        }
        let mut trainer = Trainer::new(TrainerConfig::tiny()).expect("tiny trainer");
        let mut params = Vec::new();
        trainer.model.visit_params_mut(&mut |p| {
            params.extend_from_slice(p.value().as_slice());
        });
        assert!(trainer.model.params().len() > 1, "several parts to join");
        let losses = vec![3.25, f64::NAN];
        let oracle = TaskOutput::DpTrain {
            losses: losses.clone(),
            params,
        };
        let held = Held::DpTrain { losses, trainer };
        let (pipe, failure) = sent(Ok(held), STREAM_MAX_FRAME_BYTES);
        assert_eq!(failure, None);
        assert!(pipe == stream_frame(&result_body(&ledger(), &oracle)));
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
        let result = result_body(&stats, &output);
        let ledger = decode_message(&result, |f| {
            assert_eq!(f.u8().expect("tag"), MSG_RESULT);
            let ledger: TransportStats = f.json()?;
            assert!(f.rest()? == bytes, "in-place RESULT differs from encode()");
            Ok(ledger)
        });
        assert_eq!(ledger.expect("RESULT decodes"), stats);
    }
}
