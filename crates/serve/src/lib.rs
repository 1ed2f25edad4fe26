//! corun-serve: a long-running co-scheduling service daemon.
//!
//! This crate turns the batch pipeline into a *service*: simulated
//! machines (apu-sim [`Session`](apu_sim::Session)s) run continuously on
//! worker threads, an [`OnlinePolicy`](corun_core::OnlinePolicy) decides
//! placement and DVFS levels under the power cap, and clients feed jobs
//! in over a newline-delimited JSON TCP protocol.
//!
//! Layers, bottom up:
//!
//! - [`json`] — a dependency-free JSON value type (parse + render).
//! - [`wal`] — the write-ahead line log under both durable logs (this
//!   journal and the fleet coordinator's fleetlog): one writer with a
//!   commit point ([`Journal`]), one scan with one torn-tail rule, one
//!   tail repair.
//! - [`journal`] — the daemon journal's record vocabulary: every
//!   admission, dispatch, completion, requeue, dead-letter, and eviction
//!   is logged and committed before the reply that reports it, and
//!   [`journal::replay`] reconstructs the exact job table a killed
//!   daemon left behind.
//! - [`state`] — the pure service state machine: admission, dispatch,
//!   completion, retry/dead-letter, crash eviction, and recovery as
//!   side-effect-free transition functions over [`ServiceState`], with
//!   executable safety invariants. The `corun-mc` model checker
//!   exhaustively explores exactly these functions (`docs/MODELCHECK.md`).
//! - [`snapshot`] — the [`ServiceState`] ⇄ JSON snapshot codec behind
//!   the journal's periodic checkpoints; `corun replay` (the
//!   `corun-replay` crate) verifies them bit-identically
//!   (`docs/REPLAY.md`).
//! - [`ring`] — the fixed-size time-series metrics ring behind the
//!   `watch` protocol op and `corun status --watch`.
//! - [`service`] — the daemon core: admission control with a bounded
//!   queue, incremental model growth, per-machine worker threads, live
//!   metrics, fault injection, and degraded-mode rescheduling. A thin
//!   concurrent driver over [`state`]; fully testable in-process.
//! - [`protocol`] — request/response mapping; [`protocol::handle_request`]
//!   is the single entry point, usable without a socket.
//! - [`server`] — the blocking TCP accept loop (thread per connection).
//! - [`client`] — a small blocking client for the CLI and smoke tests,
//!   with capped-exponential-back-off submit retries.
//!
//! See `docs/SERVICE.md` for the wire-format catalogue and error codes,
//! and `docs/FAULTS.md` for the fault model and recovery semantics.

pub mod client;
pub mod journal;
pub mod json;
pub mod protocol;
pub mod ring;
pub mod server;
pub mod service;
pub mod snapshot;
pub mod state;
pub mod wal;

pub use client::{Client, RetryConfig};
pub use journal::{
    check_causality, replay, scan_journal, Disposition, Record, Recovered, RecoveredJob,
    JOURNAL_FORMAT_VERSION,
};
pub use json::Json;
pub use protocol::{handle_request, PROTOCOL_VERSION};
pub use ring::{MetricsPoint, MetricsRing, RING_CAPACITY};
pub use server::{read_frame, Frame, Server, MAX_FRAME_BYTES};
pub use service::{
    JobState, JobStatus, JournalFailed, LoadSnapshot, MetricsSnapshot, Service, ServiceConfig,
    SubmitError,
};
pub use snapshot::{apply_state, encode_state};
pub use state::{
    Counters, FailReport, JobCore, MachineCore, ServiceState, TransitionError, Violation,
    ViolationKind,
};
pub use wal::{repair_tail, Journal, LineRecord, Scan};
