//! # corun-fleet — sharded fleet coordination under one cluster power cap
//!
//! The paper schedules co-run jobs under a power cap on *one* integrated
//! CPU-GPU node; this crate scales that out. A [`Fleet`] coordinator
//! routes jobs across shard workers — each shard a full
//! [`corun_serve::Service`] driving many simulated APUs under
//! [`corun_core::OnlinePolicy`] — and owns the decisions only a fleet
//! level can make:
//!
//! * **Placement** ([`placement`]) — a consistent-hash ring by job key
//!   with a least-loaded fallback, behind the [`Placement`] trait.
//! * **Work stealing** ([`router`]) — backlog moves from deep to shallow
//!   shards when the spread crosses a threshold; only *unsubmitted*
//!   jobs move, so stealing can never double-dispatch.
//! * **Budget partitioning** ([`corun_core::budget`]) — the cluster
//!   power cap is split across shards proportionally to admitted demand
//!   and rebalanced on a cadence; the sum of handed-out caps never
//!   exceeds the cluster cap (checked by `FLT004` every round).
//! * **Recovery** ([`shard`]) — a crashed shard restarts from its
//!   `corun_serve::journal` with no lost and no double-dispatched jobs;
//!   a shard lost *without* a journal gets its jobs re-placed through
//!   the router's single `requeue_lost` edge.
//! * **Partition tolerance** ([`net`]) — every coordinator↔shard RPC is
//!   deadline-bounded with bounded reconnect/backoff, sequence-echo
//!   matched, and fenced by the shard's journal epoch, so a stale
//!   incarnation can never answer for a recovered one. A per-shard
//!   circuit breaker (`Live`/`Suspect`/`Dead`) stops routing to
//!   unreachable shards while their booked power cap stays reserved.
//!   Deterministic network-fault injection (`@netchaos` directives →
//!   [`NetFaultPlan`]) drives drops, delays, duplicates, truncated
//!   frames, and one-way partitions through the same transport stack
//!   the TCP path uses.
//! * **Coordinator crash recovery** ([`fleetlog`]) — a write-ahead
//!   journal (admit / intent / confirm / terminal / caps records) lets
//!   [`Fleet::recover`] rebuild the books after a coordinator `kill -9`:
//!   intent-without-confirm jobs come back pinned in doubt and are
//!   settled by keyed resubmission, never double-dispatched. The
//!   fleetlog is a [`FleetRecord`] vocabulary over the daemon journal's
//!   own write-ahead log ([`corun_serve::wal`]), so both logs share one
//!   writer, one scan and one torn-tail rule.
//!
//! Shards run in-process ([`LocalShard`], see [`start_local_shards`]) or
//! as remote `corun serve` daemons over the line-JSON protocol
//! ([`RemoteShard`]). `corun fleet` is the CLI surface; see
//! `docs/FLEET.md`.

pub mod coordinator;
pub mod fleetlog;
pub mod net;
pub mod placement;
pub mod router;
pub mod shard;

pub use coordinator::{Circuit, Fleet, FleetConfig, FleetMetrics, PlacementKind};
pub use fleetlog::{
    replay_fleetlog, FleetRecord, RecoveredFleet, RecoveredFleetJob, RecoveredLoc,
    FLEETLOG_FORMAT_VERSION,
};
pub use net::{
    lint_netchaos, over_local, NetConfig, NetError, NetFaultPlan, Partition, RawTransport,
    RemoteShard, RpcShard, RpcSnapshot,
};
pub use placement::{HashRing, LeastLoaded, Placement, ShardView};
pub use router::{FleetJob, FleetJobId, JobLoc, Router, Steal};
pub use shard::{
    start_local_shards, JobPhase, LocalShard, ShardBackend, ShardMetrics, SubmitOutcome,
};
