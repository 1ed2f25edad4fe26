//! The resident scheduling service: admission control, online dispatch,
//! and live metrics over one or more simulated machines.
//!
//! This is the in-process core that both the TCP server
//! ([`crate::server`]) and the benchmarks drive. Jobs arrive as workload
//! spec fragments ([`corun_verify`] spec syntax), pass the lint gate, join
//! a growing [`runtime::IncrementalModel`] (which profiles each distinct
//! program once, as a class), and enter a bounded admission queue. One worker thread per simulated machine runs a
//! resumable [`apu_sim::Session`] driven by [`corun_core::OnlinePolicy`]
//! through a dispatcher that pulls from the shared queue; completions,
//! utilization, and power-cap violations feed the metrics snapshot.
//!
//! Concurrency model: all mutable state lives in one `Mutex<Inner>`.
//! Workers hold the lock only inside dispatcher polls and end-of-slice
//! harvests — the simulation ticks themselves run lock-free. `work_cv`
//! wakes starved workers when jobs are admitted or shutdown begins;
//! `done_cv` wakes clients waiting on completions.
//!
//! State-machine discipline: every job/queue/counter mutation goes
//! through the pure transition functions of
//! [`ServiceState`](crate::state::ServiceState) — this module only
//! decides *when* to call them (engine polls, harvests, wall-clock
//! back-off gates) and owns the side effects (journal writes and commits,
//! condition-variable wakeups, simulation accounting). The `corun-mc`
//! model checker exhaustively explores the same transition functions at
//! small scope, so its proofs are about the code running here. See
//! `docs/MODELCHECK.md`.
//!
//! Fault tolerance (see `docs/FAULTS.md`): an optional
//! [`FaultPlan`](apu_sim::FaultPlan) injects deterministic machine
//! crashes, job failures, stragglers, and power-meter disturbances into
//! the workers' sessions. A crashed machine's in-flight jobs are evicted
//! and re-queued with bounded, jittered exponential back-off
//! ([`corun_core::RetryPolicy`]); jobs that exhaust the budget surface as
//! [`JobState::DeadLetter`]. Every fault maps to a stable `SRV0xx`
//! diagnostic in the [`Service::chaos_report`]. An optional append-only
//! [`crate::journal`] makes the whole state machine crash-safe: a daemon
//! killed at any byte resumes via `recover` with no lost and no
//! double-dispatched jobs.

use crate::journal::{replay, scan_journal, Record, Recovered, JOURNAL_FORMAT_VERSION};
use crate::ring::{MetricsPoint, MetricsRing};
use crate::snapshot::encode_state;
use crate::state::{FailReport, ServiceState};
use crate::wal::{repair_tail, Journal};
use apu_sim::{
    BiasedGovernor, Device, Dispatch, DispatchCtx, DispatchJob, Dispatcher, FaultKind, FaultPlan,
    Governor, JobSpec, MachineConfig, NullGovernor, RunOptions, Session, SessionState,
};
use corun_core::{best_solo_run, Clock, CoRunModel, HcsConfig, JobId, OnlinePolicy, RetryPolicy};
use corun_verify::{Code, Diagnostic, Report, Severity, SpecLine};
use perf_model::{CharacterizeConfig, ProfileMethod, StagedPredictor};
use runtime::IncrementalModel;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

pub use crate::state::JobState;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The simulated machine preset every worker hosts.
    pub machine: MachineConfig,
    /// Package power cap, watts, enforced by the online policy's level
    /// choices and tracked against the simulated power trace.
    pub cap_w: f64,
    /// Number of simulated machines.
    pub machines: usize,
    /// Worker threads stepping the simulated machines. Each thread owns
    /// `machines / worker_threads` resident sessions and always advances
    /// the one whose simulated clock is furthest behind — the event
    /// engine's batched multi-session stepping, which lets one daemon
    /// host hundreds of machines cheaply. `0` (the default) keeps the
    /// historical one-thread-per-machine layout.
    pub worker_threads: usize,
    /// Admission queue bound: jobs admitted but not yet dispatched. A
    /// submission that would push past this gets an explicit
    /// [`SubmitError::QueueFull`] (all-or-nothing for batches).
    pub queue_capacity: usize,
    /// How arriving jobs are profiled on admission.
    pub profile_method: ProfileMethod,
    /// Machine characterization run (or loaded) at startup.
    pub characterization: CharacterizeConfig,
    /// Run the per-job LLC-vulnerability probe on admission.
    pub llc_probe: bool,
    /// If set, the startup characterization goes through
    /// [`runtime::characterize_cached`] keyed under this directory.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Simulated seconds each worker advances per slice before it
    /// publishes progress and re-checks for shutdown.
    pub slice_s: f64,
    /// Deterministic fault plan injected into every worker's session
    /// (`None` = no faults). Parsed from `@chaos` spec directives.
    pub fault_plan: Option<FaultPlan>,
    /// Append-only journal path; every admission, dispatch, completion,
    /// requeue, dead-letter, and eviction is logged there and committed
    /// before the reply that reports it (`docs/FAULTS.md`).
    pub journal_path: Option<std::path::PathBuf>,
    /// Replay an existing journal at `journal_path` on startup instead of
    /// truncating it: done work stays done, in-flight work is re-queued.
    pub recover: bool,
    /// Retry budget and back-off shape for failed or evicted jobs.
    pub retry: RetryPolicy,
    /// The time source for everything outside the simulation: retry
    /// back-off gates and metrics timestamps. The default
    /// [`corun_core::WallClock`] reads real time at this one I/O edge;
    /// replay and tests inject a [`corun_core::ManualClock`] so decision
    /// paths never touch the wall clock (lint `SRV011`).
    pub clock: Arc<dyn Clock>,
    /// Journal a `Snapshot` checkpoint (full encoded [`ServiceState`] +
    /// fingerprint) roughly every this many records, bounding how much of
    /// the journal `corun replay` must re-execute. `0` disables periodic
    /// snapshots; the terminal snapshot at shutdown is always written.
    pub snapshot_every: usize,
}

impl ServiceConfig {
    /// Fast setup for tests and local serving: coarse characterization,
    /// analytic profiles, one machine, paper cap.
    pub fn fast(machine: &MachineConfig) -> Self {
        let mut characterization = CharacterizeConfig::fast(machine);
        characterization.grid_points = 4;
        characterization.micro_duration_s = 1.5;
        ServiceConfig {
            machine: machine.clone(),
            cap_w: 15.0,
            machines: 1,
            worker_threads: 0,
            queue_capacity: 64,
            profile_method: ProfileMethod::Analytic,
            characterization,
            llc_probe: false,
            cache_dir: None,
            slice_s: 5.0,
            fault_plan: None,
            journal_path: None,
            recover: false,
            retry: RetryPolicy::default(),
            clock: Arc::new(corun_core::WallClock::new()),
            snapshot_every: 256,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone)]
pub enum SubmitError {
    /// The spec fragment failed the lint gate; the report carries the
    /// diagnostics.
    Lint(corun_verify::Report),
    /// The admission queue is full. Nothing from this submission was
    /// admitted; retry after the hinted delay.
    QueueFull {
        /// Suggested client back-off, seconds.
        retry_after_s: f64,
        /// The configured bound.
        capacity: usize,
        /// Jobs currently queued.
        queued: usize,
    },
    /// No frequency level of some job fits the power cap even solo, so it
    /// could never be dispatched. Nothing from this submission was queued.
    Infeasible {
        /// Names of the infeasible jobs.
        names: Vec<String>,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
    /// The journal failed, so nothing new can be made durable. Returned
    /// by the submission whose commit failed — whose jobs are withdrawn
    /// — and by every submission after it, keyed dedup hits included.
    JournalFailed(JournalFailed),
}

/// The fail-stop state of a journaled daemon: it has a journal path but
/// no healthy journal (a write or commit failed, or the journal could
/// not be created or reopened). It refuses every admission and every
/// committing reply until restarted with `--recover`; the reason is also
/// in the `SRV007` chaos diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFailed {
    /// What failed, e.g. `journal write failed: No space left on device`.
    pub reason: String,
}

impl JournalFailed {
    const CONSEQUENCE: &'static str =
        "the daemon admits nothing until restarted (--recover keeps its jobs)";
}

impl std::fmt::Display for JournalFailed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SRV007 {}; {}", self.reason, Self::CONSEQUENCE)
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Lint(report) => {
                write!(f, "spec failed lint: {} diagnostic(s)", report.len())
            }
            SubmitError::QueueFull {
                capacity, queued, ..
            } => write!(f, "admission queue full ({queued}/{capacity})"),
            SubmitError::Infeasible { names } => {
                write!(f, "no cap-feasible level for: {}", names.join(", "))
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::JournalFailed(e) => e.fmt(f),
        }
    }
}

/// Status of one job, as returned by [`Service::job_status`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Program name.
    pub name: String,
    /// Current state.
    pub state: JobState,
    /// Times this job was handed to an engine. Exactly 1 for every job
    /// that reaches `Running`/`Done` without faults; each retry after an
    /// injected failure or eviction adds one.
    pub dispatches: u32,
    /// Retry attempts consumed so far.
    pub retries: u32,
}

/// A point-in-time view of the service, cheap to take.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Jobs admitted but not yet dispatched.
    pub queue_depth: usize,
    /// The admission bound.
    pub queue_capacity: usize,
    /// Total jobs ever admitted.
    pub submitted: usize,
    /// Distinct job classes (programs, name aside) in the model: what
    /// was profiled and what `set_cap_w` re-categorizes.
    pub classes: usize,
    /// Submissions refused with backpressure (jobs, not requests).
    pub rejected: usize,
    /// Jobs handed to a simulated machine.
    pub dispatched: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Worker (simulated machine) count.
    pub machines: usize,
    /// Workers still alive.
    pub workers_alive: usize,
    /// Per-machine simulated clock, seconds.
    pub sim_now_s: Vec<f64>,
    /// Per-machine per-device busy-time fraction of the simulated clock.
    pub util: Vec<[f64; 2]>,
    /// Max over machines/devices of accumulated *predicted* busy seconds —
    /// the model's view of the makespan so far.
    pub predicted_makespan_s: f64,
    /// Max over machines of the last completion's simulated end time —
    /// the ground-truth makespan so far.
    pub simulated_makespan_s: f64,
    /// The power cap, watts.
    pub cap_w: f64,
    /// Power-trace samples observed above the cap.
    pub cap_violations: usize,
    /// Total power-trace samples observed.
    pub cap_samples: usize,
    /// First worker error, if a simulation failed.
    pub worker_error: Option<String>,
    /// Executions lost to faults and put back in the queue.
    pub requeued: usize,
    /// Jobs that exhausted their retry budget.
    pub dead_lettered: usize,
    /// Machines lost to injected crashes.
    pub evictions: usize,
    /// Per-machine crash flag (`true` = this machine is down).
    pub machines_down: Vec<bool>,
    /// Simulated seconds of execution destroyed by faults (partial runs
    /// that must be redone); feeds `BoundReport::with_lost_work`.
    pub lost_work_s: f64,
    /// Oversized protocol frames rejected by the TCP front-end.
    pub frames_rejected: usize,
    /// Journal records this incarnation wrote after opening the journal
    /// (the header of a fresh journal is not counted).
    pub journal_records: u64,
    /// Journal commits (`sync_data` calls) this incarnation made: about
    /// one per committing reply, not one per record.
    pub journal_commits: u64,
}

/// The counters a fleet coordinator places, steals and sweeps by: what
/// every keyed-batch `submit` and multi-id `status` reply carries as
/// `load`, read under the same lock hold as the reply's own data. Each
/// field equals the [`MetricsSnapshot`] field of the same name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadSnapshot {
    /// Jobs admitted but not yet dispatched.
    pub queue_depth: usize,
    /// Total jobs ever admitted.
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs that exhausted their retry budget.
    pub dead_lettered: usize,
    /// Workers still alive.
    pub workers_alive: usize,
}

/// One linted keyed job and the (program, scale) its journal record
/// names.
type KeyedJob = (JobSpec, (String, f64));

struct Inner {
    model: IncrementalModel,
    policy: OnlinePolicy,
    /// The live power cap, watts. Seeded from `ServiceConfig::cap_w` but
    /// mutable at runtime ([`Service::set_cap_w`]) so a fleet coordinator
    /// can rebalance a cluster budget across running shards.
    cap_w: f64,
    /// The pure service state machine: job table, queue, machine slots,
    /// counters. Every mutation goes through its transition functions —
    /// the same functions `corun-mc` model-checks.
    st: ServiceState,
    /// Per-job retry gates, parallel to `st.jobs`: a requeued job is not
    /// dispatchable before this clock reading (seconds on `clock`).
    /// Driver-side because the pure state speaks logical back-off
    /// seconds, not clock time. Ignored during shutdown so the drain
    /// completes.
    gates: Vec<Option<f64>>,
    /// The injected time source; every clock read in this module goes
    /// through it (never `Instant::now` — lint `SRV011`), so a
    /// `ManualClock` makes the whole driver deterministic.
    clock: Arc<dyn Clock>,
    /// Jobs refused with queue-full backpressure. They never reach the
    /// pure state (nothing was admitted), so the driver counts them.
    refused: usize,
    workers_alive: usize,
    sim_now_s: Vec<f64>,
    busy_s: Vec<[f64; 2]>,
    predicted_busy_s: Vec<[f64; 2]>,
    last_end_s: Vec<f64>,
    cap_violations: usize,
    cap_samples: usize,
    worker_error: Option<String>,
    journal: JournalSlot,
    /// Records written and commits made by this incarnation.
    journal_records: u64,
    journal_commits: u64,
    /// Runtime fault diagnostics (`SRV0xx`), capped so a pathological
    /// plan cannot grow memory without bound.
    chaos: Report,
    lost_work_s: f64,
    frames_rejected: usize,
    /// The live-ops time-series ring behind `watch` / `corun status
    /// --watch`.
    ring: MetricsRing,
    /// Last observed total-power sample, watts, for the headroom series.
    last_power_w: f64,
    /// Journal a snapshot roughly every this many records (0 = only the
    /// terminal one).
    snapshot_every: usize,
    /// `Journal::seq` right after the last snapshot append, so
    /// `maybe_snapshot` is idempotent at quiescent points.
    last_snapshot_seq: u64,
    /// Job ids journal records named since the last snapshot
    /// ([`Record::touched_jobs`]): what the next snapshot lists. A fresh
    /// journal's jobs are all named by their `accept`s and a `recovered`
    /// record names every job, so those snapshots come out full.
    touched: Vec<JobId>,
    /// Fencing epoch of this incarnation: 1 for a fresh journal, bumped
    /// by every journal recovery (1 + the count of `Recovered` records).
    /// Echoed in every protocol response so a fleet coordinator can
    /// detect that it reconnected to a different incarnation.
    epoch: u64,
    /// Boot nonce distinguishing incarnations that share an epoch (a
    /// daemon restarted *without* `--recover` starts at epoch 1 again).
    /// Pure identity — never journaled, never a decision input.
    boot: u64,
    /// Keyed-submission index: fleet submit key -> the job id it already
    /// admitted, so retried RPCs are idempotent. Rebuilt from job names
    /// on recovery (keys double as job names in `Record::Accept`).
    names: HashMap<String, JobId>,
}

/// The daemon's journal.
enum JournalSlot {
    /// No `journal_path`: nothing is journaled.
    Off,
    Open(Journal),
    /// Fail-stop: see [`JournalFailed`].
    Failed(JournalFailed),
}

struct Shared {
    cfg: ServiceConfig,
    state: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// The running service. Dropping it shuts down gracefully (drains the
/// queue, joins the workers).
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Characterize (or load the cached characterization of) the machine
    /// and start the worker threads. Returns once the service accepts
    /// submissions.
    pub fn start(cfg: ServiceConfig) -> Service {
        assert!(cfg.machines >= 1, "need at least one machine");
        assert!(cfg.queue_capacity >= 1, "queue capacity must be positive");
        let stages = match &cfg.cache_dir {
            Some(dir) => runtime::characterize_cached(&cfg.machine, &cfg.characterization, dir).0,
            None => perf_model::characterize(&cfg.machine, &cfg.characterization),
        };
        let predictor = StagedPredictor::new(&cfg.machine, stages);
        let model = IncrementalModel::new(
            cfg.machine.clone(),
            predictor,
            cfg.profile_method,
            cfg.llc_probe,
        );
        let mut policy = OnlinePolicy::empty(HcsConfig::with_cap(cfg.cap_w));
        policy.set_retry_policy(cfg.retry);
        let machines = cfg.machines;
        let mut inner = Inner {
            model,
            policy,
            cap_w: cfg.cap_w,
            st: ServiceState::new(machines),
            gates: Vec::new(),
            clock: Arc::clone(&cfg.clock),
            refused: 0,
            workers_alive: machines,
            sim_now_s: vec![0.0; machines],
            busy_s: vec![[0.0; 2]; machines],
            predicted_busy_s: vec![[0.0; 2]; machines],
            last_end_s: vec![0.0; machines],
            cap_violations: 0,
            cap_samples: 0,
            worker_error: None,
            journal: JournalSlot::Off,
            journal_records: 0,
            journal_commits: 0,
            chaos: Report::new(),
            lost_work_s: 0.0,
            frames_rejected: 0,
            ring: MetricsRing::new(),
            last_power_w: 0.0,
            snapshot_every: cfg.snapshot_every,
            last_snapshot_seq: 0,
            touched: Vec::new(),
            epoch: 1,
            boot: boot_nonce(),
            names: HashMap::new(),
        };
        open_journal(&cfg, &mut inner);
        let shared = Arc::new(Shared {
            state: Mutex::new(inner),
            cfg,
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let threads = match shared.cfg.worker_threads {
            0 => machines,
            n => n.min(machines),
        };
        let workers = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                // Round-robin machine assignment; every group is
                // non-empty because threads <= machines.
                let ids: Vec<usize> = (t..machines).step_by(threads).collect();
                let name = if threads == machines {
                    format!("corun-machine-{t}")
                } else {
                    format!("corun-workers-{t}")
                };
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || worker_loop(shared, ids))
                    .expect("spawn worker")
            })
            .collect();
        Service {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// The live power cap, watts (may differ from `config().cap_w` after
    /// a [`Service::set_cap_w`]).
    pub fn cap_w(&self) -> f64 {
        self.lock().cap_w
    }

    /// Re-cap the running service. The dispatcher, the admission
    /// feasibility check and cap-violation accounting all switch to the
    /// new cap immediately; jobs already running finish at their old
    /// settings (the sim applies frequency settings at dispatch). Used by
    /// the fleet coordinator to push rebalanced shard budgets.
    ///
    /// A daemon whose journal failed refuses the change, and so does the
    /// call whose commit fails: `Err` always means the old cap still
    /// holds, which is what a coordinator keeps on its books.
    ///
    /// # Panics
    ///
    /// Panics if `cap_w` is non-positive or non-finite.
    pub fn set_cap_w(&self, cap_w: f64) -> Result<(), JournalFailed> {
        assert!(
            cap_w.is_finite() && cap_w > 0.0,
            "cap must be finite and positive, got {cap_w}"
        );
        let mut inner = self.lock();
        inner.journal_healthy()?;
        let old = inner.cap_w;
        if (old - cap_w).abs() < f64::EPSILON {
            return inner.commit();
        }
        inner.set_cap(cap_w);
        // The cap feeds the dispatcher's feasibility decisions, so replay
        // must see it at the same point in the event order.
        inner.journal_append(&Record::CapChange { cap_w });
        inner.push_metrics_point();
        inner.maybe_snapshot(false);
        if let Err(e) = inner.commit() {
            inner.set_cap(old);
            return Err(e);
        }
        // A raised cap can make previously-declined queue entries
        // dispatchable: wake any parked workers to re-poll.
        self.shared.work_cv.notify_all();
        Ok(())
    }

    /// Submit a workload spec fragment (one or more `name [xSCALE]
    /// [*COUNT]` lines). The fragment is linted, its new classes profiled
    /// and its jobs admitted atomically: either every expanded job is queued and their
    /// ids returned, or nothing is.
    pub fn submit_spec(&self, text: &str) -> Result<Vec<JobId>, SubmitError> {
        let (lines, report) = corun_verify::lint_spec_full(text);
        if report.has_errors() {
            return Err(SubmitError::Lint(report));
        }
        let jobs = corun_verify::build_jobs(&self.shared.cfg.machine, &lines)
            .map_err(|_| SubmitError::Lint(report))?;
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Pair each expanded job with the (program, scale) it came from,
        // in build_jobs expansion order, for the journal.
        let mut origin = Vec::with_capacity(jobs.len());
        for line in &lines {
            for _ in 0..line.count {
                origin.push((line.name.clone(), line.scale));
            }
        }
        debug_assert_eq!(origin.len(), jobs.len());
        let mut inner = self.lock();
        // The fail-stop state admits nothing: no reply may claim durable
        // state the journal can no longer keep.
        inner
            .journal_healthy()
            .map_err(SubmitError::JournalFailed)?;
        let admitted = inner.admit_fresh(self.shared.cfg.queue_capacity, &jobs, &origin);
        // The op's one commit, on every path, before its reply.
        if let Err(e) = inner.commit() {
            if let Ok(ids) = &admitted {
                // The reply says "not admitted", so this incarnation must
                // not run the jobs either.
                for &id in ids {
                    inner.st.reject(id).expect("accepted under this lock hold");
                }
            }
            return Err(SubmitError::JournalFailed(e));
        }
        if admitted.is_ok() {
            self.shared.work_cv.notify_all();
        }
        admitted
    }

    /// Idempotent keyed submit: a single-job spec fragment tagged with a
    /// caller-chosen key (a fleet coordinator's job identity). The first
    /// call admits the job under that key as its name; any repeat —
    /// including an RPC retry after a lost reply, or a retry against a
    /// journal-recovered incarnation — returns the already-admitted id
    /// instead of dispatching a second copy. The one-item call of
    /// [`Service::submit_keyed_batch`].
    pub fn submit_spec_keyed(&self, text: &str, key: &str) -> Result<Vec<JobId>, SubmitError> {
        let mut outcomes = self.submit_keyed_batch(&[(key, text)]);
        outcomes
            .pop()
            .expect("one outcome per item")
            .map(|id| vec![id])
    }

    /// Keyed batch admission: each `(key, spec)` item is one keyed submit
    /// (see [`Service::submit_spec_keyed`]), and the reply holds one
    /// outcome per item, in order. The whole batch takes one lock hold
    /// and one journal commit. A dedup hit answers first; any other item
    /// is admitted on its own, so a lint failure or an infeasible job
    /// refuses only its item, and once the queue is full every later
    /// fresh item gets `QueueFull`. If the commit fails, every fresh item
    /// is withdrawn and every item answers `JournalFailed`.
    pub fn submit_keyed_batch(&self, items: &[(&str, &str)]) -> Vec<Result<JobId, SubmitError>> {
        self.submit_keyed_batch_with_load(items).0
    }

    /// [`Service::submit_keyed_batch`] plus the shard's load as it stands
    /// when the batch's lock hold ends.
    pub fn submit_keyed_batch_with_load(
        &self,
        items: &[(&str, &str)],
    ) -> (Vec<Result<JobId, SubmitError>>, LoadSnapshot) {
        let built: Vec<_> = items
            .iter()
            .map(|&(key, text)| self.keyed_job(key, text))
            .collect();
        let mut inner = self.lock();
        let outcomes = self.admit_keyed(&mut inner, items, built);
        (outcomes, inner.load())
    }

    /// The locked half of [`Service::submit_keyed_batch`].
    fn admit_keyed(
        &self,
        inner: &mut Inner,
        items: &[(&str, &str)],
        built: Vec<Result<KeyedJob, SubmitError>>,
    ) -> Vec<Result<JobId, SubmitError>> {
        // The fail-stop state admits nothing, keyed dedup hits included.
        if let Err(e) = inner.journal_healthy() {
            return vec![Err(SubmitError::JournalFailed(e)); items.len()];
        }
        let mut fresh = Vec::new();
        let mut outcomes = Vec::with_capacity(items.len());
        for (&(key, _), built) in items.iter().zip(built) {
            // Keyed dedup must win over every other refusal: a retried RPC
            // whose first attempt landed must get the same answer back even
            // if the queue has since filled or shutdown began.
            if let Some(&id) = inner.names.get(key) {
                outcomes.push(Ok(id));
                continue;
            }
            let admitted = built.and_then(|(job, origin)| {
                let capacity = self.shared.cfg.queue_capacity;
                inner
                    .admit_fresh(capacity, &[job], &[origin])
                    .map(|ids| ids[0])
            });
            if let Ok(id) = admitted {
                inner.names.insert(key.to_string(), id);
                fresh.push(key);
            }
            outcomes.push(admitted);
        }
        // The op's one commit, on every path, before its reply.
        if let Err(e) = inner.commit() {
            for key in fresh {
                let id = inner.names.remove(key).expect("named above");
                inner.st.reject(id).expect("accepted under this lock hold");
            }
            return vec![Err(SubmitError::JournalFailed(e)); items.len()];
        }
        if !fresh.is_empty() {
            self.shared.work_cv.notify_all();
        }
        outcomes
    }

    /// Lint a keyed fragment and expand it to its one job, named `key`,
    /// paired with the (program, scale) the journal records.
    fn keyed_job(&self, key: &str, text: &str) -> Result<KeyedJob, SubmitError> {
        let (lines, report) = corun_verify::lint_spec_full(text);
        if report.has_errors() {
            return Err(SubmitError::Lint(report));
        }
        let mut jobs = corun_verify::build_jobs(&self.shared.cfg.machine, &lines)
            .map_err(|_| SubmitError::Lint(report))?;
        if jobs.len() != 1 {
            let mut report = Report::new();
            report.push(Diagnostic::new(
                Code::Srv001,
                "keyed submit",
                format!(
                    "a keyed submission must expand to exactly one job, got {}",
                    jobs.len()
                ),
            ));
            return Err(SubmitError::Lint(report));
        }
        let mut job = jobs.pop().expect("length checked above");
        job.name = key.to_string();
        Ok((job, (lines[0].name.clone(), lines[0].scale)))
    }

    /// Status of one job, `None` for unknown ids. Like every reply that
    /// reports job state, it commits the journal before returning, so a
    /// state it reports survives a power cut; a failed commit shows up in
    /// [`Service::journal_failure`].
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        let mut inner = self.lock();
        let status = inner.st.jobs().get(id).map(|j| JobStatus {
            id,
            name: j.name.clone(),
            state: j.state.clone(),
            dispatches: j.dispatches,
            retries: j.retries,
        });
        let _ = inner.commit();
        status
    }

    /// States of several jobs under one lock hold, `None` for unknown
    /// ids. Commits once, as [`Service::job_status`] does.
    pub fn job_states(&self, ids: &[JobId]) -> Vec<Option<JobState>> {
        self.job_states_with_load(ids).0
    }

    /// [`Service::job_states`] plus the shard's load, read under the same
    /// lock hold as the states.
    pub fn job_states_with_load(&self, ids: &[JobId]) -> (Vec<Option<JobState>>, LoadSnapshot) {
        let mut inner = self.lock();
        let states = ids
            .iter()
            .map(|&id| inner.st.jobs().get(id).map(|j| j.state.clone()))
            .collect();
        let _ = inner.commit();
        (states, inner.load())
    }

    /// Why the journal failed, once it has: the daemon then admits
    /// nothing and the protocol answers every committing op with
    /// `journal_failed`. `None` while the journal is healthy or off.
    pub fn journal_failure(&self) -> Option<JournalFailed> {
        self.lock().journal_healthy().err()
    }

    /// Number of jobs the service has ever seen (valid ids are `0..len`).
    pub fn job_count(&self) -> usize {
        self.lock().st.jobs().len()
    }

    /// A point-in-time metrics snapshot. Advisory: it does not commit,
    /// so a poll never pays an fsync (nor does [`Service::watch`] or
    /// [`Service::chaos_report`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let util = (0..self.shared.cfg.machines)
            .map(|m| {
                let now = inner.sim_now_s[m].max(1e-12);
                [inner.busy_s[m][0] / now, inner.busy_s[m][1] / now]
            })
            .collect();
        let predicted = inner
            .predicted_busy_s
            .iter()
            .flat_map(|d| d.iter().copied())
            .fold(0.0, f64::max);
        let simulated = inner.last_end_s.iter().copied().fold(0.0, f64::max);
        let c = inner.st.counters;
        let load = inner.load();
        MetricsSnapshot {
            queue_depth: load.queue_depth,
            queue_capacity: self.shared.cfg.queue_capacity,
            submitted: load.submitted,
            classes: inner.model.class_count(),
            rejected: c.rejected + inner.refused,
            dispatched: c.dispatched,
            completed: load.completed,
            machines: self.shared.cfg.machines,
            workers_alive: load.workers_alive,
            sim_now_s: inner.sim_now_s.clone(),
            util,
            predicted_makespan_s: predicted,
            simulated_makespan_s: simulated,
            cap_w: inner.cap_w,
            cap_violations: inner.cap_violations,
            cap_samples: inner.cap_samples,
            worker_error: inner.worker_error.clone(),
            requeued: c.requeued,
            dead_lettered: load.dead_lettered,
            evictions: c.evictions,
            machines_down: inner.st.machines.iter().map(|m| m.down).collect(),
            lost_work_s: inner.lost_work_s,
            frames_rejected: inner.frames_rejected,
            journal_records: inner.journal_records,
            journal_commits: inner.journal_commits,
        }
    }

    /// The accumulated `SRV0xx` fault diagnostics: crashes, retries,
    /// dead-letters, meter disturbances, journal problems.
    pub fn chaos_report(&self) -> Report {
        self.lock().chaos.clone()
    }

    /// Record one oversized protocol frame (called by the TCP front-end;
    /// see `server::MAX_FRAME_BYTES`).
    pub fn note_oversized_frame(&self) {
        let mut inner = self.lock();
        inner.frames_rejected += 1;
        inner.chaos_push(
            Diagnostic::new(
                Code::Srv008,
                "tcp",
                "oversized request frame rejected before parsing",
            )
            .with_help("requests are line-JSON and must stay under server::MAX_FRAME_BYTES"),
        );
    }

    /// Block until `id` reaches a terminal state (done, rejected, or
    /// dead-lettered) or the workers die. Returns the final status,
    /// `None` for unknown ids.
    pub fn wait_job(&self, id: JobId) -> Option<JobStatus> {
        let mut inner = self.lock();
        loop {
            let job = inner.st.jobs().get(id)?;
            if matches!(
                job.state,
                JobState::Done { .. } | JobState::Rejected | JobState::DeadLetter { .. }
            ) || inner.workers_alive == 0
            {
                let status = JobStatus {
                    id,
                    name: job.name.clone(),
                    state: job.state.clone(),
                    dispatches: job.dispatches,
                    retries: job.retries,
                };
                let _ = inner.commit();
                return Some(status);
            }
            inner = self.shared.done_cv.wait(inner).expect("service lock");
        }
    }

    /// Block until the queue is empty and nothing is running (or the
    /// workers die).
    pub fn wait_idle(&self) {
        let mut inner = self.lock();
        loop {
            let active = inner.st.queue.len()
                + inner
                    .st
                    .jobs()
                    .iter()
                    .filter(|j| matches!(j.state, JobState::Running { .. }))
                    .count();
            if active == 0 || inner.workers_alive == 0 {
                let _ = inner.commit();
                return;
            }
            inner = self.shared.done_cv.wait(inner).expect("service lock");
        }
    }

    /// Stop accepting submissions. Queued work still drains; call
    /// [`Service::shutdown`] to also wait for the workers.
    pub fn begin_shutdown(&self) {
        let mut inner = self.lock();
        if !inner.st.shutdown {
            inner.st.begin_shutdown();
            inner.journal_append(&Record::ShutdownBegin);
        }
        // Shutdown goes ahead even in the fail-stop state; a failure
        // shows up in `journal_failure`.
        let _ = inner.commit();
        self.shared.work_cv.notify_all();
    }

    /// Whether [`Service::begin_shutdown`] was called.
    pub fn is_shutting_down(&self) -> bool {
        self.lock().st.shutdown
    }

    /// Block until someone requests shutdown (or the workers die).
    pub fn wait_shutdown(&self) {
        let mut inner = self.lock();
        while !inner.st.shutdown && inner.workers_alive > 0 {
            inner = self.shared.work_cv.wait(inner).expect("service lock");
        }
    }

    /// Graceful shutdown: refuse new submissions, drain the queue, join
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
        // The workers are gone, so the state is final: write the terminal
        // snapshot `corun replay` diffs against. Idempotent — a second
        // shutdown (e.g. Drop after an explicit call) appends nothing.
        let mut inner = self.lock();
        inner.push_metrics_point();
        inner.maybe_snapshot(true);
        let _ = inner.commit();
    }

    /// The FNV-1a fingerprint of the current pure state — the identity
    /// `corun replay` reproduces bit-for-bit from the journal.
    pub fn state_fingerprint(&self) -> u64 {
        let mut inner = self.lock();
        let _ = inner.commit();
        inner.st.fingerprint()
    }

    /// Metrics-ring points newer than `cursor` plus the next cursor to
    /// poll with (the `watch` protocol op; pass `0` for everything
    /// retained).
    pub fn watch(&self, cursor: u64) -> (Vec<MetricsPoint>, u64) {
        self.lock().ring.since(cursor)
    }

    /// This incarnation's fencing epoch: 1 fresh, +1 per journal
    /// recovery. Echoed in every protocol response.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// This incarnation's boot nonce (see [`Service::epoch`]): tells two
    /// incarnations apart even when their epochs collide.
    pub fn boot(&self) -> u64 {
        self.lock().boot
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.state.lock().expect("service lock")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A per-incarnation identity nonce: process id mixed through the
/// splitmix64 finalizer with a process-local counter. Not entropy (two
/// services in one test process still differ via the counter) and not
/// time (the deterministic-decision-path lint `SRV011` stays clean) —
/// pure identity, never journaled, never a decision input. Masked to
/// 53 bits so it round-trips exactly through JSON numbers.
fn boot_nonce() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let raw = (u64::from(std::process::id()) << 32) ^ SEQ.fetch_add(1, Ordering::Relaxed);
    corun_core::DetRng::new(raw).next_u64() >> 11
}

/// Set up the journal on `inner` per the config: recover-and-append when
/// asked and possible, create-fresh otherwise. Any recovery problem is
/// reported (SRV007/SRV009) and recovery abandoned wholesale — a partial
/// replay could mis-align job ids, which is worse than starting clean.
/// A journal that cannot be created, reopened or moved out of the way
/// leaves the daemon in the fail-stop state.
fn open_journal(cfg: &ServiceConfig, inner: &mut Inner) {
    let Some(path) = &cfg.journal_path else {
        return;
    };
    if cfg.recover && path.exists() {
        let scan = scan_journal(path);
        let mut report = scan.report.clone();
        let (recovered, replay_report) = replay(&scan.records);
        report.merge(replay_report);
        // Rebuild every JobSpec *before* touching the model so a failure
        // cannot leave it half-populated.
        let mut specs: Vec<JobSpec> = Vec::with_capacity(recovered.jobs.len());
        let mut ok = !report.has_errors();
        if ok {
            for (id, rj) in recovered.jobs.iter().enumerate() {
                let line = SpecLine {
                    name: rj.program.clone(),
                    scale: rj.scale,
                    count: 1,
                    line: 0,
                };
                match corun_verify::build_jobs(&cfg.machine, std::slice::from_ref(&line)) {
                    Ok(mut js) if js.len() == 1 => {
                        let mut spec = js.pop().expect("one job");
                        spec.name = rj.name.clone();
                        specs.push(spec);
                    }
                    _ => {
                        report.push(Diagnostic::new(
                            Code::Srv009,
                            format!("job {id}"),
                            format!(
                                "cannot rebuild `{}` from the journal; recovery abandoned",
                                rj.program
                            ),
                        ));
                        ok = false;
                        break;
                    }
                }
            }
        }
        // Repair the tail before reopening for append: truncate a torn
        // fragment (and restore a missing final newline) so the next
        // record lands on a record boundary instead of concatenating
        // onto garbage — which would corrupt the journal for the *next*
        // recovery.
        if ok {
            if let Err(e) = repair_tail(path, &scan) {
                report.push(
                    Diagnostic::new(
                        Code::Srv007,
                        path.display().to_string(),
                        format!("cannot repair journal tail: {e}; recovery abandoned"),
                    )
                    .with_severity(Severity::Error),
                );
                ok = false;
            }
        }
        // Starting fresh must not truncate a refused journal: move it
        // aside first and name where it went in every error.
        let aside = if ok { Ok(None) } else { set_aside(path) };
        if let Ok(Some(kept)) = &aside {
            for d in &mut report.diagnostics {
                if d.severity == Severity::Error {
                    d.message = format!(
                        "{}; the refused journal is kept at {}",
                        d.message,
                        kept.display()
                    );
                }
            }
        }
        for d in report.diagnostics {
            inner.chaos_push(d);
        }
        if ok {
            restore(inner, &recovered, specs, cfg.machines);
            // The fencing epoch counts incarnations of this journal: 1
            // fresh, +1 per recovery (this one included).
            let past_recoveries = scan
                .records
                .iter()
                .filter(|r| matches!(r, Record::Recovered { .. }))
                .count() as u64;
            inner.epoch = 2 + past_recoveries;
            match Journal::open_append(path, scan.records.len() as u64) {
                Ok(j) => {
                    inner.journal = JournalSlot::Open(j);
                    inner.journal_append(&Record::Recovered {
                        jobs: inner.st.jobs().len(),
                        machines: cfg.machines,
                    });
                    // Checkpoint the restored state immediately. The
                    // `recovered` record named every job, so this
                    // snapshot is full.
                    inner.maybe_snapshot(true);
                    // A failure enters the fail-stop state; no reply
                    // waits on this commit.
                    let _ = inner.commit();
                }
                Err(e) => {
                    inner.journal_fail(
                        path.display().to_string(),
                        format!("cannot reopen journal for appending: {e}"),
                    );
                }
            }
            return;
        }
        if let Err(e) = aside {
            // Creating a fresh journal would truncate the refused one.
            inner.journal_fail(
                path.display().to_string(),
                format!("cannot move the refused journal aside: {e}; it is left in place"),
            );
            return;
        }
    }
    let meta = Record::Meta {
        version: JOURNAL_FORMAT_VERSION,
        machines: cfg.machines,
    };
    match Journal::create(path, &meta) {
        Ok(j) => inner.journal = JournalSlot::Open(j),
        Err(e) => {
            inner.journal_fail(
                path.display().to_string(),
                format!("cannot create journal: {e}"),
            );
        }
    }
}

/// Move a journal recovery refused to the first free `<path>.refused`
/// (then `<path>.refused.1`, ...), so the fresh journal created in its
/// place cannot truncate it. Returns where it went; an empty file holds
/// nothing to keep and stays where it is (`None`).
fn set_aside(path: &Path) -> std::io::Result<Option<PathBuf>> {
    if std::fs::metadata(path)?.len() == 0 {
        return Ok(None);
    }
    let kept = (0u32..)
        .map(|n| {
            let mut name = path.as_os_str().to_owned();
            name.push(".refused");
            if n > 0 {
                name.push(format!(".{n}"));
            }
            PathBuf::from(name)
        })
        .find(|p| !p.exists())
        .expect("some suffix is free");
    std::fs::rename(path, &kept)?;
    // Make the rename durable before a fresh journal takes the name.
    let dir = match kept.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(Some(kept))
}

/// Fold a successful replay into the fresh `Inner`: re-admit every job
/// into the model and policy (preserving id alignment), rebuild the pure
/// state via [`ServiceState::restore_from`], and transfer the simulation
/// accounting of completed work.
fn restore(inner: &mut Inner, recovered: &Recovered, specs: Vec<JobSpec>, machines: usize) {
    for (id, spec) in specs.iter().enumerate() {
        let model_id = inner.model.push_job(spec);
        debug_assert_eq!(model_id, id, "recovery must preserve job ids");
        let (model, policy) = inner.model_and_policy();
        policy.admit_job(model, id);
    }
    inner.st = ServiceState::restore_from(recovered, machines);
    inner.gates = vec![None; inner.st.jobs().len()];
    // Keyed submissions use the job name as their idempotency key, so
    // the dedup index survives kill -9 by rebuilding from names. Plain
    // submissions can repeat generated names (`srad@0` per batch) —
    // harmless, those names are never looked up as keys.
    inner.names = inner
        .st
        .jobs()
        .iter()
        .enumerate()
        .map(|(id, j)| (j.name.clone(), id))
        .collect();
    for job in inner.st.jobs() {
        // Busy-time and makespan accounting only transfers when the
        // machine still exists in this incarnation.
        if let JobState::Done {
            machine,
            device,
            start_s,
            end_s,
            predicted_s,
        } = job.state
        {
            if machine < machines {
                inner.busy_s[machine][device.index()] += end_s - start_s;
                inner.predicted_busy_s[machine][device.index()] += predicted_s;
                inner.last_end_s[machine] = inner.last_end_s[machine].max(end_s);
            }
        }
    }
}

impl Inner {
    /// Split borrow so the policy can be fed the model while both live in
    /// the same guard.
    fn model_and_policy(&mut self) -> (&IncrementalModel, &mut OnlinePolicy) {
        (&self.model, &mut self.policy)
    }

    /// Switch the live cap for the policy, the admission feasibility
    /// check and cap-violation accounting.
    fn set_cap(&mut self, cap_w: f64) {
        self.cap_w = cap_w;
        let (model, policy) = self.model_and_policy();
        policy.set_cap_w(model, cap_w);
    }

    /// Admit a submission that is not a keyed dedup hit: refuse it
    /// outright (shutdown, queue full), or profile and accept every job
    /// and queue them all unless one is infeasible under the cap.
    fn admit_fresh(
        &mut self,
        capacity: usize,
        jobs: &[JobSpec],
        origin: &[(String, f64)],
    ) -> Result<Vec<JobId>, SubmitError> {
        if self.st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        let queued = self.st.queue.len();
        if queued + jobs.len() > capacity {
            self.refused += jobs.len();
            return Err(SubmitError::QueueFull {
                // The sim drains in wall-clock bursts, so a short,
                // depth-scaled hint beats pretending to know drain speed.
                retry_after_s: 0.05 * (queued + 1) as f64,
                capacity,
                queued,
            });
        }
        // Profile into the model first so feasibility is checked against
        // the exact ladders the dispatcher will use. The whole batch is
        // admitted under one lock hold, so the intermediate states are
        // never observable.
        let cap = self.cap_w;
        let mut ids = Vec::with_capacity(jobs.len());
        let mut infeasible = Vec::new();
        for (job, (program, scale)) in jobs.iter().zip(origin) {
            let id = self.model.push_job(job);
            let (model, policy) = self.model_and_policy();
            policy.admit_job(model, id);
            let (state_id, rec) = self
                .st
                .accept(&job.name, program, *scale)
                .expect("admission checked open above");
            debug_assert_eq!(state_id, id, "model and state ids must align");
            self.gates.push(None);
            self.journal_append(&rec);
            if Device::ALL
                .iter()
                .all(|&d| best_solo_run(&self.model, id, d, cap).is_none())
            {
                infeasible.push(job.name.clone());
            }
            ids.push(id);
        }
        if !infeasible.is_empty() {
            // The model is append-only, so the profiled entries stay, but
            // none of this submission reaches the queue.
            for &id in &ids {
                let rec = self.st.reject(id).expect("accepted just above");
                self.journal_append(&rec);
            }
            return Err(SubmitError::Infeasible { names: infeasible });
        }
        self.push_metrics_point();
        self.maybe_snapshot(false);
        Ok(ids)
    }

    /// Write one record. It is not durable until the next
    /// [`Inner::commit`]. A failed write enters the fail-stop state.
    fn journal_append(&mut self, record: &Record) {
        let JournalSlot::Open(journal) = &mut self.journal else {
            return;
        };
        self.touched.extend(record.touched_jobs());
        match journal.write(record) {
            Ok(()) => self.journal_records += 1,
            Err(e) => {
                let loc = journal.path().display().to_string();
                self.journal_fail(loc, format!("journal write failed: {e}"));
            }
        }
    }

    /// The commit point: make every record written so far durable before
    /// the reply that depends on them goes out. Each client-facing op
    /// calls it once, at its end; workers never do — their `dispatch`
    /// and `done` records ride along with the next reply's commit. A
    /// failed commit enters the fail-stop state and is never retried.
    fn commit(&mut self) -> Result<(), JournalFailed> {
        let JournalSlot::Open(journal) = &mut self.journal else {
            return self.journal_healthy();
        };
        match journal.commit() {
            Ok(synced) => {
                self.journal_commits += u64::from(synced);
                Ok(())
            }
            Err(e) => {
                let loc = journal.path().display().to_string();
                Err(self.journal_fail(loc, format!("journal commit failed: {e}")))
            }
        }
    }

    fn load(&self) -> LoadSnapshot {
        let c = self.st.counters;
        LoadSnapshot {
            queue_depth: self.st.queue.len(),
            submitted: c.accepted - c.rejected,
            completed: c.completed,
            dead_lettered: c.dead_lettered,
            workers_alive: self.workers_alive,
        }
    }

    /// `Err` in the fail-stop state.
    fn journal_healthy(&self) -> Result<(), JournalFailed> {
        match &self.journal {
            JournalSlot::Failed(e) => Err(e.clone()),
            JournalSlot::Off | JournalSlot::Open(_) => Ok(()),
        }
    }

    /// Enter the fail-stop state and report it as an SRV007 error. It
    /// happens at most once per incarnation, so the diagnostic bypasses
    /// the chaos-report bound.
    fn journal_fail(&mut self, loc: String, reason: String) -> JournalFailed {
        let message = format!("{reason}; {}", JournalFailed::CONSEQUENCE);
        self.chaos
            .push(Diagnostic::new(Code::Srv007, loc, message).with_severity(Severity::Error));
        let failed = JournalFailed { reason };
        self.journal = JournalSlot::Failed(failed.clone());
        failed
    }

    /// Sample the live state into the metrics ring: queue depth, power
    /// headroom vs the cap, completion/dead-letter counters, per-machine
    /// utilization. Called at harvest boundaries and other interesting
    /// moments (admission, cap changes, evictions) under the lock.
    fn push_metrics_point(&mut self) {
        let sim_s = self.sim_now_s.iter().copied().fold(0.0, f64::max);
        let util = self
            .sim_now_s
            .iter()
            .zip(&self.busy_s)
            .map(|(&now, busy)| {
                if now > 0.0 {
                    (busy[0] + busy[1]) / (2.0 * now)
                } else {
                    0.0
                }
            })
            .collect();
        let point = MetricsPoint {
            seq: 0, // assigned by the ring
            wall_s: self.clock.now_s(),
            sim_s,
            queue_depth: self.st.queue.len(),
            headroom_w: self.cap_w - self.last_power_w,
            completed: self.st.counters.completed,
            dead_lettered: self.st.counters.dead_lettered,
            util,
        };
        self.ring.push(point);
    }

    /// Journal a `Snapshot` checkpoint if one is due: `force` writes
    /// whenever anything was appended since the last snapshot (terminal
    /// and post-recovery checkpoints), otherwise only after
    /// `snapshot_every` records. Callers must hold the lock at a
    /// quiescent point — every state mutation already journaled — so the
    /// snapshot equals replaying its own prefix. The snapshot lists only
    /// the jobs named since the previous one; its fingerprint covers the
    /// whole state.
    fn maybe_snapshot(&mut self, force: bool) {
        let JournalSlot::Open(journal) = &self.journal else {
            return;
        };
        let seq = journal.seq();
        let since = seq.saturating_sub(self.last_snapshot_seq);
        if since == 0 {
            return;
        }
        if !force && (self.snapshot_every == 0 || since < self.snapshot_every as u64) {
            return;
        }
        let record = Record::Snapshot {
            seq,
            fingerprint: self.st.fingerprint(),
            state: encode_state(&self.st, self.touched.drain(..)),
        };
        self.journal_append(&record);
        if let JournalSlot::Open(journal) = &self.journal {
            self.last_snapshot_seq = journal.seq();
        }
    }

    /// Append a fault diagnostic, bounded so a hostile plan cannot grow
    /// the report without limit.
    fn chaos_push(&mut self, d: Diagnostic) {
        const MAX_CHAOS_DIAGS: usize = 256;
        if self.chaos.len() < MAX_CHAOS_DIAGS {
            self.chaos.push(d);
        }
    }

    /// Drive the side effects of a failure transition the pure state
    /// already performed: journal its record, retract the lost
    /// execution's predicted busy time, arm the wall-clock back-off
    /// gate, and emit the `SRV003`/`SRV006` diagnostic. Returns `true`
    /// when the job went back to the queue (the caller should wake
    /// workers).
    fn note_fail(&mut self, fail: &FailReport) -> bool {
        debug_assert!(fail.machine < self.predicted_busy_s.len());
        self.predicted_busy_s[fail.machine][fail.device.index()] -= fail.predicted_s;
        self.journal_append(&fail.record.clone());
        match &fail.record {
            Record::Requeue {
                id,
                attempt,
                backoff_s,
                reason,
            } => {
                let until = self.clock.now_s() + *backoff_s;
                self.set_gate(*id, until);
                self.chaos_push(Diagnostic::new(
                    Code::Srv003,
                    format!("job {id}"),
                    format!("{reason}; retry {attempt} after {backoff_s:.3}s back-off"),
                ));
                true
            }
            Record::Dead { id, reason } => {
                self.clear_gate(*id);
                self.chaos_push(Diagnostic::new(
                    Code::Srv006,
                    format!("job {id}"),
                    reason.clone(),
                ));
                false
            }
            other => unreachable!("fail transitions emit Requeue or Dead, not {other:?}"),
        }
    }

    fn set_gate(&mut self, job: JobId, until: f64) {
        if self.gates.len() <= job {
            self.gates.resize(job + 1, None);
        }
        self.gates[job] = Some(until);
    }

    fn clear_gate(&mut self, job: JobId) {
        if let Some(g) = self.gates.get_mut(job) {
            *g = None;
        }
    }
}

/// The per-worker dispatcher: pulls from the shared admission queue via
/// the online policy. Mirrors `runtime::online_exec::OnlineDispatcher`,
/// with the ready set and belief state living behind the service lock.
struct WorkerDispatcher {
    shared: Arc<Shared>,
    machine_idx: usize,
    running: [Option<(JobId, usize)>; 2],
}

impl Dispatcher for WorkerDispatcher {
    fn next(&mut self, device: Device, now_s: f64, ctx: &DispatchCtx) -> Dispatch {
        // Clone the handle so the guard's lifetime is not tied to `self`
        // (dispatch below needs `&mut self` for the belief state).
        let shared = Arc::clone(&self.shared);
        let mut inner = shared.state.lock().expect("service lock");
        // Sync belief: a device polling for work has nothing on it.
        self.running[device.index()] = None;
        if ctx.running.cpu + ctx.running.gpu == 0 {
            self.running = [None, None];
        }
        let co = self.running[device.other().index()];
        // Jobs sitting out a retry back-off are invisible until their
        // gate passes — except during shutdown, where draining promptly
        // beats honoring back-off.
        let wall_now = inner.clock.now_s();
        let ready: Vec<JobId> = inner
            .st
            .queue
            .iter()
            .copied()
            .filter(|&j| {
                inner.st.shutdown
                    || inner
                        .gates
                        .get(j)
                        .copied()
                        .flatten()
                        .is_none_or(|t| t <= wall_now)
            })
            .collect();
        let pick = inner.policy.pick(&inner.model, &ready, device, co);
        match pick {
            Some(p) => self.dispatch(&mut inner, device, now_s, ctx, (p.job, p.level), co),
            None => {
                let anything_running = ctx.running.cpu + ctx.running.gpu > 0;
                if anything_running {
                    // The co-runner must finish first (steal guard, cap);
                    // its completion re-polls us.
                    Dispatch::Idle
                } else if ready.is_empty() {
                    if inner.st.shutdown && inner.st.queue.is_empty() {
                        Dispatch::Drained
                    } else {
                        // Nothing dispatchable right now (empty queue or
                        // every job behind its back-off gate): the session
                        // will report Starved and the worker parks/polls.
                        Dispatch::Idle
                    }
                } else {
                    // Liveness fallback: the machine is fully idle yet the
                    // policy declined every queued job for this device
                    // (steal guard, or no cap-feasible level here). If the
                    // other device can host something, its own poll will
                    // take it; otherwise force the best feasible candidate
                    // here so the queue cannot wedge.
                    let cap = inner.cap_w;
                    let other = device.other();
                    let other_can = ready
                        .iter()
                        .any(|&j| best_solo_run(&inner.model, j, other, cap).is_some());
                    if other_can {
                        return Dispatch::Idle;
                    }
                    let forced = ready
                        .iter()
                        .filter_map(|&j| {
                            best_solo_run(&inner.model, j, device, cap).map(|(l, t)| (j, l, t))
                        })
                        .min_by(|a, b| a.2.total_cmp(&b.2));
                    match forced {
                        Some((job, level, _)) => {
                            self.dispatch(&mut inner, device, now_s, ctx, (job, level), None)
                        }
                        None => Dispatch::Idle,
                    }
                }
            }
        }
    }
}

impl WorkerDispatcher {
    fn dispatch(
        &mut self,
        inner: &mut Inner,
        device: Device,
        now_s: f64,
        ctx: &DispatchCtx,
        (job, level): (JobId, usize),
        co: Option<(JobId, usize)>,
    ) -> Dispatch {
        let predicted_s = match co {
            Some((cj, cl)) => inner.model.corun_time(job, device, level, cj, cl),
            None => inner.model.standalone(job, device, level),
        };
        let spec = inner.model.job(job);
        // The engine only polls a device it has idled, but the previous
        // occupant's completion/failure may still await harvest; clear
        // the slot so the pure transition sees the engine's truth.
        inner.st.vacate(self.machine_idx, device);
        match inner
            .st
            .dispatch(job, self.machine_idx, device, now_s, predicted_s)
        {
            Ok(rec) => {
                inner.clear_gate(job);
                inner.predicted_busy_s[self.machine_idx][device.index()] += predicted_s;
                inner.journal_append(&rec);
                self.running[device.index()] = Some((job, level));
                Dispatch::Run(DispatchJob {
                    job: spec,
                    tag: job,
                    set_freq: Some(ctx.setting.with_level(device, level)),
                })
            }
            Err(e) => {
                // A refused dispatch is a driver bug (the policy picked
                // from the queued set): fail loudly in debug builds,
                // stay live (skip the dispatch) in release.
                debug_assert!(false, "dispatch transition refused: {e}");
                Dispatch::Idle
            }
        }
    }
}

/// One resident simulated machine inside a worker thread: its session,
/// governor, dispatcher view, and harvest cursors.
struct MachineRun<'m> {
    idx: usize,
    session: Session<'m>,
    governor: Box<dyn Governor>,
    dispatcher: WorkerDispatcher,
    harvested_records: usize,
    harvested_samples: usize,
    /// Set when the session last reported `Starved`, and at start (an
    /// empty session has nothing to poll for); cleared whenever a peer
    /// makes progress or work arrives, so the machine re-polls the queue.
    starved: bool,
}

/// A worker thread hosting one or more simulated machines. With the
/// event-driven engine a session's `advance` costs O(wake-ups), so one
/// thread steps many machines: each iteration it pulls the resident
/// session with the *earliest simulated clock* (the machine whose next
/// wake-up is due first) and advances it one slice. Machines retire
/// individually (crash, finish, error) — `workers_alive` counts live
/// machines, not threads.
fn worker_loop(shared: Arc<Shared>, machine_ids: Vec<usize>) {
    // The sessions borrow the machine config, so the worker owns a clone
    // for its whole lifetime.
    let machine = shared.cfg.machine.clone();
    let mut runs: Vec<MachineRun<'_>> = machine_ids
        .into_iter()
        .map(|idx| {
            let mut opts = RunOptions::new(machine.freqs.min_setting());
            opts.limit_s = f64::INFINITY;
            let mut session = Session::new(&machine, opts);
            // When the plan perturbs the meter, the worker runs a
            // reactive governor (instead of the inert NullGovernor) so
            // meter noise and spikes actually exercise the cap-control
            // loop.
            let governor: Box<dyn Governor> = match &shared.cfg.fault_plan {
                Some(plan) if plan.perturbs_meter() => {
                    Box::new(BiasedGovernor::gpu_biased(shared.cfg.cap_w))
                }
                _ => Box::new(NullGovernor),
            };
            if let Some(plan) = &shared.cfg.fault_plan {
                if !plan.is_noop() {
                    session.set_faults(plan.injector(idx));
                }
            }
            let dispatcher = WorkerDispatcher {
                shared: Arc::clone(&shared),
                machine_idx: idx,
                running: [None, None],
            };
            MachineRun {
                idx,
                session,
                governor,
                dispatcher,
                harvested_records: 0,
                harvested_samples: 0,
                // Park until the queue holds work, then wake every
                // resident machine at once: the first poll after an
                // admission goes to the earliest clock (lowest index on a
                // tie), never to whichever machine the thread happened to
                // be polling when the admission landed.
                starved: true,
            }
        })
        .collect();
    let slice = shared.cfg.slice_s.max(1e-3);

    while !runs.is_empty() {
        let pick = runs
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.starved)
            .min_by(|(_, a), (_, b)| a.session.now_s().total_cmp(&b.session.now_s()))
            .map(|(i, _)| i);
        let Some(pi) = pick else {
            // Every resident machine is starved: park until work arrives,
            // or poll if the queue holds jobs gated behind retry
            // back-offs.
            let mut inner = shared.state.lock().expect("service lock");
            if inner.st.queue.is_empty() {
                while inner.st.queue.is_empty() && !inner.st.shutdown {
                    inner = shared.work_cv.wait(inner).expect("service lock");
                }
            } else {
                let (guard, _) = shared
                    .work_cv
                    .wait_timeout(inner, std::time::Duration::from_millis(10))
                    .expect("service lock");
                inner = guard;
            }
            if inner.st.shutdown && inner.st.queue.is_empty() {
                // Graceful shutdown with nothing left: retire every
                // still-starved machine.
                inner.workers_alive -= runs.len();
                shared.done_cv.notify_all();
                shared.work_cv.notify_all();
                return;
            }
            drop(inner);
            for r in &mut runs {
                r.starved = false;
            }
            continue;
        };

        let r = &mut runs[pi];
        let state = r
            .session
            .advance(&mut r.dispatcher, &mut *r.governor, slice, None);
        let mut inner = shared.state.lock().expect("service lock");
        let records_before = r.harvested_records;
        let requeued_any = harvest(
            &mut inner,
            &mut r.session,
            r.idx,
            &shared.cfg.retry,
            &mut r.harvested_records,
            &mut r.harvested_samples,
        );
        shared.done_cv.notify_all();
        if requeued_any {
            shared.work_cv.notify_all();
        }
        // Did this slice change anything a starved peer could react to?
        // Simulated progress (completions freeing slots or cap headroom)
        // and requeues both count; a no-progress `Starved` poll does not
        // — re-waking peers on those ping-pongs two starved machines
        // forever while a loaded peer with a later clock never gets
        // picked.
        let made_progress = requeued_any
            || r.harvested_records > records_before
            || !matches!(state, Ok(SessionState::Starved));
        let mut retire = false;
        match state {
            Ok(SessionState::Advanced) => {}
            Ok(SessionState::Starved) => {
                r.starved = true;
                if inner.st.shutdown && inner.st.queue.is_empty() {
                    retire = true;
                }
            }
            Ok(SessionState::Crashed) => {
                // An injected machine crash: evict in-flight work into
                // the retry path and retire this machine. Not a worker
                // *error* — the rest of the fleet keeps serving.
                evict_crashed(&mut inner, &r.session, r.idx, &shared.cfg.retry);
                shared.done_cv.notify_all();
                shared.work_cv.notify_all();
                retire = true;
            }
            Ok(SessionState::Finished) => retire = true,
            Err(e) => {
                let msg = format!("machine {}: {e}", r.idx);
                inner.worker_error.get_or_insert(msg);
                retire = true;
            }
        }
        if retire {
            inner.workers_alive -= 1;
            shared.done_cv.notify_all();
            shared.work_cv.notify_all();
            drop(inner);
            runs.remove(pi);
            if made_progress {
                for other in &mut runs {
                    other.starved = false;
                }
            }
        } else {
            drop(inner);
            if made_progress {
                for (i, other) in runs.iter_mut().enumerate() {
                    if i != pi {
                        other.starved = false;
                    }
                }
            }
        }
    }
}

/// Handle an injected machine crash: mark the machine down, journal the
/// eviction, push the in-flight jobs through the retry path, and undo
/// the crashed machine's speculative accounting. The harvest that ran
/// just before already folded every completion and failure, so the pure
/// state's slots are exactly the engine's in-flight set.
fn evict_crashed(
    inner: &mut Inner,
    session: &Session<'_>,
    machine_idx: usize,
    retry: &RetryPolicy,
) {
    let now = session.now_s();
    match inner.st.crash(machine_idx, now, retry, "machine crash") {
        Ok((evict_rec, evicted)) => {
            inner.journal_append(&evict_rec);
            inner.chaos_push(Diagnostic::new(
                Code::Srv002,
                format!("machine {machine_idx}"),
                format!(
                    "injected crash at t={now:.2}s; {} in-flight job(s) evicted",
                    evicted.len()
                ),
            ));
            for fail in &evicted {
                // The lost partial execution must be redone somewhere
                // else: charge it to lost work (note_fail retracts the
                // model's view of this machine's future).
                inner.lost_work_s += (now - fail.start_s).max(0.0);
                inner.note_fail(fail);
            }
            inner.push_metrics_point();
            inner.maybe_snapshot(false);
        }
        Err(e) => {
            debug_assert!(false, "crash transition refused: {e}");
        }
    }
}

/// Fold a finished slice back into the shared state: completions, cap
/// accounting, injected job failures (routed through the retry policy),
/// and non-fatal fault events. Returns whether anything was requeued.
fn harvest(
    inner: &mut Inner,
    session: &mut Session<'_>,
    machine_idx: usize,
    retry: &RetryPolicy,
    harvested_records: &mut usize,
    harvested_samples: &mut usize,
) -> bool {
    inner.sim_now_s[machine_idx] = session.now_s();
    for record in &session.records()[*harvested_records..] {
        match inner.st.complete(record.tag, record.end_s) {
            Ok(rec) => {
                inner.busy_s[machine_idx][record.device.index()] += record.duration_s();
                inner.last_end_s[machine_idx] = inner.last_end_s[machine_idx].max(record.end_s);
                inner.journal_append(&rec);
            }
            Err(e) => {
                debug_assert!(false, "complete transition refused: {e}");
            }
        }
    }
    *harvested_records = session.records().len();
    let samples = &session.trace().samples_w[*harvested_samples..];
    inner.cap_samples += samples.len();
    let cap_w = inner.cap_w;
    inner.cap_violations += samples.iter().filter(|&&w| w > cap_w + 1e-9).count();
    if let Some(&w) = samples.last() {
        inner.last_power_w = w;
    }
    *harvested_samples = session.trace().samples_w.len();

    // Injected job failures: the engine destroyed the execution mid-run
    // (no JobRecord); route the job through the retry path.
    let mut requeued_any = false;
    for failure in session.take_failures() {
        inner.lost_work_s += (failure.at_s - failure.start_s).max(0.0);
        match inner.st.fail(failure.tag, retry, "injected job failure") {
            Ok(fail) => {
                requeued_any |= inner.note_fail(&fail);
            }
            Err(e) => {
                debug_assert!(false, "fail transition refused: {e}");
            }
        }
    }
    // Non-fatal fault events (stragglers, meter disturbances) become
    // warning-severity diagnostics; crashes are reported by the eviction
    // path with the in-flight context the event itself lacks.
    if let Some(injector) = session.faults_mut() {
        for event in injector.drain_events() {
            let diag = match event.kind {
                FaultKind::MachineCrash => continue,
                FaultKind::Straggler { factor } => Diagnostic::new(
                    Code::Srv004,
                    match event.tag {
                        Some(tag) => format!("job {tag}"),
                        None => format!("machine {machine_idx}"),
                    },
                    format!(
                        "injected straggler at t={:.2}s: running {factor:.2}x slower",
                        event.at_s
                    ),
                ),
                FaultKind::MeterSpike { magnitude_w } => Diagnostic::new(
                    Code::Srv005,
                    format!("machine {machine_idx}"),
                    format!(
                        "injected meter spike of {magnitude_w:.1} W at t={:.2}s",
                        event.at_s
                    ),
                ),
                FaultKind::MeterNoise { amplitude_w } => Diagnostic::new(
                    Code::Srv005,
                    format!("machine {machine_idx}"),
                    format!("power meter noise of ±{amplitude_w:.1} W injected"),
                ),
            };
            inner.chaos_push(diag);
        }
    }
    inner.push_metrics_point();
    inner.maybe_snapshot(false);
    requeued_any
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_cfg(queue_capacity: usize) -> ServiceConfig {
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.queue_capacity = queue_capacity;
        cfg
    }

    fn tiny_service(queue_capacity: usize) -> Service {
        Service::start(tiny_cfg(queue_capacity))
    }

    fn temp_journal(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "corun-service-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn submit_schedules_and_completes() {
        let svc = tiny_service(16);
        let ids = svc.submit_spec("srad x0.2\nlud x0.1 *2\n").unwrap();
        assert_eq!(ids, vec![0, 1, 2]);
        for &id in &ids {
            let st = svc.wait_job(id).unwrap();
            match st.state {
                JobState::Done {
                    start_s,
                    end_s,
                    predicted_s,
                    ..
                } => {
                    assert!(end_s > start_s);
                    assert!(predicted_s > 0.0);
                }
                other => panic!("job {id} not done: {other:?}"),
            }
        }
        let m = svc.metrics();
        assert_eq!(m.submitted, 3);
        assert_eq!(m.classes, 2, "both `lud x0.1` jobs are one class");
        assert_eq!(m.completed, 3);
        assert_eq!(m.dispatched, 3);
        assert_eq!(m.queue_depth, 0);
        assert!(m.simulated_makespan_s > 0.0);
        assert!(m.predicted_makespan_s > 0.0);
        assert!(m.util[0][0] > 0.0 || m.util[0][1] > 0.0);
        assert_eq!(m.requeued, 0);
        assert_eq!(m.dead_lettered, 0);
        assert_eq!(m.evictions, 0);
        assert!(svc.chaos_report().is_empty());
        svc.shutdown();
    }

    #[test]
    fn lint_gate_rejects_bad_specs() {
        let svc = tiny_service(8);
        let err = svc.submit_spec("no_such_program x1\n").unwrap_err();
        match err {
            SubmitError::Lint(report) => assert!(report.has_errors()),
            other => panic!("expected lint error, got {other:?}"),
        }
        let err = svc.submit_spec("srad x-3\n").unwrap_err();
        assert!(matches!(err, SubmitError::Lint(_)));
        assert_eq!(svc.metrics().submitted, 0);
        svc.shutdown();
    }

    #[test]
    fn batch_past_capacity_is_rejected_atomically() {
        let svc = tiny_service(2);
        let err = svc.submit_spec("srad x0.1 *5\n").unwrap_err();
        match err {
            SubmitError::QueueFull {
                retry_after_s,
                capacity,
                ..
            } => {
                assert!(retry_after_s > 0.0);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.submitted, 0);
        assert_eq!(m.rejected, 5);
        // The service still works after rejecting.
        let ids = svc.submit_spec("srad x0.1\n").unwrap();
        let st = svc.wait_job(ids[0]).unwrap();
        assert!(matches!(st.state, JobState::Done { .. }));
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let svc = tiny_service(16);
        let ids = svc.submit_spec("hotspot x0.1 *3\n").unwrap();
        svc.shutdown();
        for &id in &ids {
            let st = svc.job_status(id).unwrap();
            assert!(
                matches!(st.state, JobState::Done { .. }),
                "job {id} not drained: {st:?}"
            );
        }
        assert!(matches!(
            svc.submit_spec("srad x0.1\n"),
            Err(SubmitError::ShuttingDown)
        ));
    }

    #[test]
    fn multiple_machines_share_the_queue() {
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.machines = 2;
        cfg.queue_capacity = 32;
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.1 *4\nlud x0.1 *4\n").unwrap();
        svc.wait_idle();
        let mut used = std::collections::BTreeSet::new();
        for &id in &ids {
            match svc.wait_job(id).unwrap().state {
                JobState::Done { machine, .. } => {
                    used.insert(machine);
                }
                other => panic!("job {id}: {other:?}"),
            }
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 8);
        assert_eq!(m.machines, 2);
        assert!(!used.is_empty());
        svc.shutdown();
    }

    #[test]
    fn batched_worker_threads_step_many_machines() {
        // Four machines on one worker thread: the earliest-wake-up
        // batching must drain the same workload the per-machine layout
        // does, with every machine retiring cleanly at shutdown.
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.machines = 4;
        cfg.worker_threads = 1;
        cfg.queue_capacity = 32;
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.1 *6\nlud x0.1 *6\n").unwrap();
        svc.wait_idle();
        for &id in &ids {
            let st = svc.wait_job(id).unwrap();
            assert!(
                matches!(st.state, JobState::Done { .. }),
                "job {id}: {st:?}"
            );
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 12);
        assert_eq!(m.machines, 4);
        svc.shutdown();
        assert_eq!(svc.metrics().workers_alive, 0);
    }

    #[test]
    fn crashed_machine_retires_without_stalling_its_thread_peers() {
        // Machine 0 crashes at t=2; its thread also hosts machine 1,
        // which must keep serving and absorb the evicted work.
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.machines = 2;
        cfg.worker_threads = 1;
        cfg.queue_capacity = 32;
        cfg.fault_plan = Some(FaultPlan::parse("@chaos seed=5 crash=0:2\n").unwrap());
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.1 *4\n").unwrap();
        for &id in &ids {
            let st = svc.wait_job(id).unwrap();
            assert!(
                matches!(st.state, JobState::Done { .. }),
                "job {id}: {st:?}"
            );
        }
        svc.shutdown();
    }

    #[test]
    fn certain_failure_retries_then_dead_letters() {
        let mut cfg = tiny_cfg(16);
        cfg.fault_plan = Some(FaultPlan::parse("@chaos seed=11 job-fail=1\n").unwrap());
        cfg.retry = RetryPolicy {
            max_retries: 2,
            backoff_base_s: 0.01,
            backoff_max_s: 0.05,
        };
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.1\n").unwrap();
        let st = svc.wait_job(ids[0]).unwrap();
        match &st.state {
            JobState::DeadLetter { reason } => {
                assert!(reason.contains("3 attempt"), "reason: {reason}");
            }
            other => panic!("expected dead-letter, got {other:?}"),
        }
        assert_eq!(st.dispatches, 3, "initial dispatch + 2 retries");
        let m = svc.metrics();
        assert_eq!(m.dead_lettered, 1);
        assert_eq!(m.requeued, 2);
        assert_eq!(m.completed, 0);
        assert!(m.lost_work_s > 0.0);
        let chaos = svc.chaos_report();
        assert_eq!(chaos.count(Code::Srv003), 2, "{}", chaos.render_human());
        assert_eq!(chaos.count(Code::Srv006), 1, "{}", chaos.render_human());
        svc.shutdown();
    }

    #[test]
    fn crash_evicts_and_the_fleet_recovers() {
        let mut cfg = tiny_cfg(32);
        cfg.machines = 2;
        // One worker steps both machines, earliest simulated clock first,
        // so which machine takes which job does not depend on how the OS
        // schedules threads: machine 0 polls first and is busy when its
        // crash comes due. With a thread per machine, a descheduled
        // machine 0 could sit idle (an idle clock never advances) while
        // machine 1 ran the whole batch, and the crash never fired.
        cfg.worker_threads = 1;
        // Machine 0 dies 2 simulated seconds in; machine 1 is unharmed.
        cfg.fault_plan = Some(FaultPlan::parse("@chaos seed=5 crash=0:2\n").unwrap());
        cfg.retry = RetryPolicy {
            max_retries: 4,
            backoff_base_s: 0.01,
            backoff_max_s: 0.05,
        };
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.2 *3\nlud x0.2 *3\n").unwrap();
        for &id in &ids {
            let st = svc.wait_job(id).unwrap();
            assert!(
                matches!(st.state, JobState::Done { .. }),
                "job {id} should finish on the surviving machine: {st:?}"
            );
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 6);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.machines_down, vec![true, false]);
        assert!(m.worker_error.is_none(), "{:?}", m.worker_error);
        let chaos = svc.chaos_report();
        assert_eq!(chaos.count(Code::Srv002), 1, "{}", chaos.render_human());
        svc.shutdown();
    }

    #[test]
    fn journal_survives_restart_and_recovers() {
        let path = temp_journal("restart");
        let mut cfg = tiny_cfg(16);
        cfg.journal_path = Some(path.clone());
        let svc = Service::start(cfg);
        let ids = svc.submit_spec("srad x0.1\nlud x0.1\n").unwrap();
        let mut ends = Vec::new();
        for &id in &ids {
            match svc.wait_job(id).unwrap().state {
                JobState::Done { end_s, .. } => ends.push(end_s),
                other => panic!("job {id}: {other:?}"),
            }
        }
        svc.shutdown();
        drop(svc);

        let mut cfg = tiny_cfg(16);
        cfg.journal_path = Some(path.clone());
        cfg.recover = true;
        let svc = Service::start(cfg);
        assert_eq!(svc.job_count(), 2);
        assert_eq!(svc.metrics().classes, 2, "recovery interns its jobs");
        for (&id, &end_s) in ids.iter().zip(&ends) {
            let st = svc.job_status(id).unwrap();
            match st.state {
                JobState::Done {
                    end_s: recovered, ..
                } => assert_eq!(recovered, end_s, "completion must survive verbatim"),
                other => panic!("job {id} lost its completion: {other:?}"),
            }
            assert_eq!(st.dispatches, 1, "done jobs are never re-dispatched");
        }
        let m = svc.metrics();
        assert_eq!(m.submitted, 2);
        assert_eq!(m.completed, 2);
        assert!(
            !svc.chaos_report().has_errors(),
            "{}",
            svc.chaos_report().render_human()
        );
        // The recovered service still serves.
        let more = svc.submit_spec("hotspot x0.1\n").unwrap();
        assert_eq!(more, vec![2]);
        let st = svc.wait_job(2).unwrap();
        assert!(matches!(st.state, JobState::Done { .. }));
        svc.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_journal_version_starts_fresh_with_srv007() {
        let path = temp_journal("stale");
        std::fs::write(&path, "{\"t\":\"meta\",\"version\":999}\n").unwrap();
        let mut cfg = tiny_cfg(8);
        cfg.journal_path = Some(path.clone());
        cfg.recover = true;
        let svc = Service::start(cfg);
        assert_eq!(svc.job_count(), 0, "stale journal must not be replayed");
        let chaos = svc.chaos_report();
        assert!(chaos.has(Code::Srv007), "{}", chaos.render_human());
        // The service still works (fresh journal).
        let ids = svc.submit_spec("srad x0.1\n").unwrap();
        assert!(matches!(
            svc.wait_job(ids[0]).unwrap().state,
            JobState::Done { .. }
        ));
        svc.shutdown();
        // The refused journal was moved aside, not truncated.
        let mut refused = path.clone().into_os_string();
        refused.push(".refused");
        assert!(
            std::fs::read_to_string(&refused).is_ok_and(|t| t.contains("999")),
            "the stale journal must be kept"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(refused).ok();
    }

    /// A journaled two-machine daemon with `plain` single-job submits and
    /// one keyed submit acknowledged, all run to completion. Completion is
    /// watched through `metrics`, which never commits, so the last jobs'
    /// `dispatch`/`done` records are written but not yet committed.
    fn journaled_with_pending_records(path: &Path, plain: usize) -> (Service, Vec<JobId>) {
        let mut cfg = tiny_cfg(64);
        cfg.machines = 2;
        cfg.journal_path = Some(path.to_path_buf());
        let svc = Service::start(cfg);
        let mut acked = Vec::new();
        for _ in 0..plain {
            acked.extend(svc.submit_spec("srad x0.1\n").unwrap());
        }
        acked.extend(svc.submit_spec_keyed("lud x0.1\n", "k1").unwrap());
        while svc.metrics().completed < acked.len() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        (svc, acked)
    }

    fn break_journal(svc: &Service) {
        match &mut svc.lock().journal {
            JournalSlot::Open(journal) => journal.break_with_dev_full(),
            _ => panic!("the journal is not open"),
        }
    }

    fn assert_refuses_admissions(svc: &Service) {
        for r in [
            svc.submit_spec("srad x0.1\n"),
            svc.submit_spec_keyed("lud x0.1\n", "k1"),
            svc.submit_spec_keyed("lud x0.1\n", "k2"),
        ] {
            assert!(matches!(r, Err(SubmitError::JournalFailed(_))), "{r:?}");
        }
        assert!(svc.set_cap_w(20.0).is_err(), "a refused cap change");
        assert!((svc.cap_w() - 15.0).abs() < 1e-9, "the old cap holds");
        let chaos = svc.chaos_report();
        assert_eq!(chaos.count(Code::Srv007), 1, "{}", chaos.render_human());
        assert!(chaos.has_errors());
    }

    /// Recover the file the failed daemon left and check no acknowledged
    /// job is missing and the keyed one still deduplicates.
    fn recover_keeps_every_ack(path: &Path, acked: &[JobId]) {
        let mut cfg = tiny_cfg(64);
        cfg.machines = 2;
        cfg.journal_path = Some(path.to_path_buf());
        cfg.recover = true;
        let svc = Service::start(cfg);
        assert!(svc.journal_failure().is_none());
        assert!(
            !svc.chaos_report().has_errors(),
            "{}",
            svc.chaos_report().render_human()
        );
        for &id in acked {
            let st = svc.wait_job(id).expect("an acknowledged job is missing");
            assert!(matches!(st.state, JobState::Done { .. }), "{st:?}");
        }
        let k1 = *acked.last().unwrap();
        assert_eq!(svc.submit_spec_keyed("lud x0.1\n", "k1").unwrap(), vec![k1]);
        svc.shutdown();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn failed_commit_fails_its_op_and_stops_admissions() {
        let path = temp_journal("commit-fails");
        let (svc, acked) = journaled_with_pending_records(&path, 5);
        let before = svc.metrics();
        assert!(before.journal_records > before.journal_commits);
        break_journal(&svc);
        // A keyed dedup hit writes nothing, so its commit is the first
        // call to touch the broken disk: fdatasync fails with EINVAL.
        match svc.submit_spec_keyed("lud x0.1\n", "k1") {
            Err(SubmitError::JournalFailed(e)) => {
                assert!(e.reason.contains("commit failed"), "{e}");
                assert!(e.to_string().contains("SRV007"), "{e}");
            }
            other => panic!("expected a journal failure, got {other:?}"),
        }
        assert_refuses_admissions(&svc);
        assert_eq!(svc.metrics().journal_commits, before.journal_commits);
        svc.shutdown();
        drop(svc);
        recover_keeps_every_ack(&path, &acked);
    }

    #[test]
    fn failed_write_withdraws_the_submit_and_stops_admissions() {
        let path = temp_journal("write-fails");
        let (svc, acked) = journaled_with_pending_records(&path, 3);
        break_journal(&svc);
        // The accept write fails with ENOSPC; the reply is an error, so
        // the job it admitted in memory is withdrawn, not run.
        let next = svc.job_count();
        let err = svc.submit_spec("hotspot x0.1\n").unwrap_err();
        assert!(matches!(err, SubmitError::JournalFailed(_)), "{err:?}");
        assert!(err.to_string().contains("write failed"), "{err}");
        assert_eq!(svc.job_status(next).unwrap().state, JobState::Rejected);
        assert_refuses_admissions(&svc);
        svc.shutdown();
        drop(svc);
        recover_keeps_every_ack(&path, &acked);
    }

    #[test]
    fn failed_batch_commit_withdraws_every_fresh_item() {
        let path = temp_journal("batch-fails");
        let (svc, acked) = journaled_with_pending_records(&path, 2);
        break_journal(&svc);
        let next = svc.job_count();
        let outcomes = svc.submit_keyed_batch(&[
            ("k1", "lud x0.1\n"),
            ("k5", "srad x0.1\n"),
            ("k6", "hotspot x0.1\n"),
        ]);
        assert_eq!(outcomes.len(), 3);
        for r in &outcomes {
            assert!(matches!(r, Err(SubmitError::JournalFailed(_))), "{r:?}");
        }
        // The fresh items were withdrawn, not run.
        assert_eq!(svc.job_count(), next + 2);
        for id in next..svc.job_count() {
            assert_eq!(svc.job_status(id).unwrap().state, JobState::Rejected);
        }
        assert_refuses_admissions(&svc);
        svc.shutdown();
        drop(svc);

        // `--recover` has none of them: their keys admit afresh.
        let mut cfg = tiny_cfg(64);
        cfg.journal_path = Some(path.clone());
        cfg.recover = true;
        let svc = Service::start(cfg);
        assert_eq!(svc.job_count(), acked.len());
        let k5 = svc.submit_spec_keyed("srad x0.1\n", "k5").unwrap();
        assert_eq!(k5, vec![acked.len()]);
        svc.shutdown();
        drop(svc);
        recover_keeps_every_ack(&path, &acked);
    }

    #[test]
    fn oversized_frames_are_counted_and_reported() {
        let svc = tiny_service(4);
        svc.note_oversized_frame();
        svc.note_oversized_frame();
        assert_eq!(svc.metrics().frames_rejected, 2);
        assert_eq!(svc.chaos_report().count(Code::Srv008), 2);
        svc.shutdown();
    }
}
