//! The pure service state machine: every concurrency-critical transition
//! of the daemon — admission, dispatch, completion, failure/requeue,
//! dead-letter, machine crash, shutdown — as side-effect-free functions
//! over an explicit [`ServiceState`].
//!
//! The live daemon ([`crate::service`]) is a thin driver over these
//! functions: worker threads decide *when* to call a transition (engine
//! polls, harvests, wall-clock back-off gates) but the state change
//! itself — which job moves where, which counters move, which
//! [`Record`] is journaled — happens here and only here. The bounded
//! model checker (`corun-mc`) drives the *same* functions through every
//! interleaving of events at small scope, so what it proves is a
//! property of the code the daemon actually runs, not of a parallel
//! hand-written model.
//!
//! Transitions are total over their error type: an illegal call (e.g.
//! dispatching a job that is not queued) returns a [`TransitionError`]
//! and leaves the state untouched. Every legal transition returns the
//! journal [`Record`]s that make it durable; callers append them (the
//! daemon to its write-ahead journal, the model checker to its in-memory
//! journal whose replay it cross-checks).
//!
//! The journal is read back through the same functions:
//! [`ServiceState::apply`] re-applies one record and checks it yields
//! exactly that record, and [`ServiceState::recover`] is the restart.
//! `--recover`, `corun replay` and the model checker's kill all fold a
//! journal this one way.
//!
//! [`ServiceState::check_invariants`] states the safety properties as
//! executable checks; `docs/MODELCHECK.md` catalogs them and the MC0xx
//! diagnostics they surface as.

use crate::journal::Record;
use apu_sim::Device;
use corun_core::{JobId, RequeueOutcome, RetryPolicy};
use std::collections::VecDeque;

/// Where a submitted job currently stands.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for dispatch.
    Queued,
    /// Refused at admission (cap-infeasible); never queued.
    Rejected,
    /// Running on a simulated machine.
    Running {
        /// Hosting machine index.
        machine: usize,
        /// Device it was dispatched to.
        device: Device,
        /// Dispatch time on that machine's simulated clock, seconds.
        start_s: f64,
        /// Model-predicted duration at dispatch (co-run-aware), seconds.
        predicted_s: f64,
    },
    /// Completed.
    Done {
        /// Hosting machine index.
        machine: usize,
        /// Device it ran on.
        device: Device,
        /// Dispatch time, simulated seconds.
        start_s: f64,
        /// Completion time, simulated seconds.
        end_s: f64,
        /// Model-predicted duration at dispatch, seconds.
        predicted_s: f64,
    },
    /// Terminal failure: the job's executions kept being destroyed by
    /// faults and the retry budget is spent. Never silently dropped.
    DeadLetter {
        /// Why the job was given up on.
        reason: String,
    },
}

/// One job as the pure state machine sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCore {
    /// Instance name (`program#k`).
    pub name: String,
    /// Program the job was built from (journal recovery rebuilds the
    /// [`apu_sim::JobSpec`] from this).
    pub program: String,
    /// Workload scale factor.
    pub scale: f64,
    /// Current state.
    pub state: JobState,
    /// Retry attempts consumed so far.
    pub retries: u32,
    /// Times this job was handed to an engine.
    pub dispatches: u32,
}

/// One machine as the pure state machine sees it: a crash flag and one
/// slot per device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineCore {
    /// `true` once the machine crashed; it never hosts work again.
    pub down: bool,
    /// The job running on each device (`Device::index()` order).
    pub running: [Option<JobId>; 2],
}

/// Monotonic event counters; the books the balance invariant audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Jobs ever accepted (admission records written).
    pub accepted: usize,
    /// Jobs refused after profiling (cap-infeasible).
    pub rejected: usize,
    /// Engine handoffs (first dispatches plus retries).
    pub dispatched: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Executions lost to faults and put back in the queue.
    pub requeued: usize,
    /// Jobs that exhausted their retry budget.
    pub dead_lettered: usize,
    /// Machines lost to crashes.
    pub evictions: usize,
}

/// Why a transition was refused. The state is untouched on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionError {
    /// The job id is out of range.
    UnknownJob(JobId),
    /// The machine index is out of range.
    UnknownMachine(usize),
    /// The transition needs the job queued, but it is not.
    NotQueued(JobId),
    /// The transition needs the job running, but it is not.
    NotRunning(JobId),
    /// The target machine has crashed.
    MachineDown(usize),
    /// The target device already hosts a job.
    SlotBusy {
        /// The machine whose slot is occupied.
        machine: usize,
        /// The occupied device.
        device: Device,
        /// The job occupying it.
        occupant: JobId,
    },
    /// The service no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitionError::UnknownJob(j) => write!(f, "unknown job {j}"),
            TransitionError::UnknownMachine(m) => write!(f, "unknown machine {m}"),
            TransitionError::NotQueued(j) => write!(f, "job {j} is not queued"),
            TransitionError::NotRunning(j) => write!(f, "job {j} is not running"),
            TransitionError::MachineDown(m) => write!(f, "machine {m} is down"),
            TransitionError::SlotBusy {
                machine,
                device,
                occupant,
            } => write!(
                f,
                "machine {machine} {device:?} slot is busy with job {occupant}"
            ),
            TransitionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

/// Everything a failure transition decides, so the driver can account
/// for the lost execution (lost-work seconds, retracted predictions)
/// and emit the matching `SRV003`/`SRV006` diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct FailReport {
    /// The job whose execution was lost.
    pub job: JobId,
    /// The journal record making the decision durable (`Requeue` or
    /// `Dead`).
    pub record: Record,
    /// Retry or dead-letter, with attempt count and back-off.
    pub outcome: RequeueOutcome,
    /// The machine the lost execution ran on.
    pub machine: usize,
    /// The device it ran on.
    pub device: Device,
    /// When it started, simulated seconds.
    pub start_s: f64,
    /// The model's predicted duration at dispatch, seconds.
    pub predicted_s: f64,
}

/// Which safety property a [`Violation`] breaks; the model checker maps
/// each kind to a stable MC0xx diagnostic code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A job the service owes work to is unreachable: queued-but-not-in-
    /// queue, running-but-not-in-a-slot, or hosted by a dead machine.
    JobLost,
    /// A job is schedulable or scheduled twice: duplicated in the queue,
    /// queued while running or done, in two slots, or a slot points at a
    /// job that is not running there.
    DoubleDispatch,
    /// Journal replay disagrees with the in-memory state.
    ReplayMismatch,
    /// The monotonic counters do not balance against the job table.
    BooksImbalance,
}

/// One invariant violation found by [`ServiceState::check_invariants`]
/// or by the model checker's replay check.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which safety property is broken.
    pub kind: ViolationKind,
    /// What exactly is wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// The explicit service state every transition is a pure function over.
///
/// The queue, machines, flag and counters are public so the daemon
/// driver and the model checker can *read* them freely (and so the
/// checker's test-only mutation hook can corrupt them deliberately); by
/// convention all legitimate writes go through the transition methods.
/// The job table is private behind [`ServiceState::jobs`]: every write
/// to it must also update the running digest the fingerprint reads, and
/// the compiler holds writers to that.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceState {
    /// Every job ever accepted, dense by [`JobId`].
    jobs: Vec<JobCore>,
    /// Wrapping sum of `job_digest` over `jobs`, kept in step by
    /// `push_job` and `edit_job` so a fingerprint never walks the table.
    jobs_digest: u64,
    /// Admitted jobs awaiting dispatch, in arrival order (requeues go to
    /// the back).
    pub queue: VecDeque<JobId>,
    /// Per-machine crash flag and device slots.
    pub machines: Vec<MachineCore>,
    /// Whether shutdown began; no further admissions.
    pub shutdown: bool,
    /// The books.
    pub counters: Counters,
}

impl ServiceState {
    /// Fresh state for `machines` machines, nothing queued.
    pub fn new(machines: usize) -> ServiceState {
        ServiceState {
            jobs: Vec::new(),
            jobs_digest: 0,
            queue: VecDeque::new(),
            machines: vec![MachineCore::default(); machines],
            shutdown: false,
            counters: Counters::default(),
        }
    }

    /// Admit one job: append it to the job table and the queue. Returns
    /// the new id and the `Accept` record to journal.
    pub fn accept(
        &mut self,
        name: &str,
        program: &str,
        scale: f64,
    ) -> Result<(JobId, Record), TransitionError> {
        if self.shutdown {
            return Err(TransitionError::ShuttingDown);
        }
        let id = self.push_job(JobCore {
            name: name.to_string(),
            program: program.to_string(),
            scale,
            state: JobState::Queued,
            retries: 0,
            dispatches: 0,
        });
        self.queue.push_back(id);
        self.counters.accepted += 1;
        Ok((
            id,
            Record::Accept {
                id,
                name: name.to_string(),
                program: program.to_string(),
                scale,
            },
        ))
    }

    /// Refuse an accepted-but-still-queued job (cap-infeasible after
    /// profiling). Returns the `Reject` record to journal.
    pub fn reject(&mut self, id: JobId) -> Result<Record, TransitionError> {
        let job = self.jobs.get(id).ok_or(TransitionError::UnknownJob(id))?;
        if job.state != JobState::Queued {
            return Err(TransitionError::NotQueued(id));
        }
        self.edit_job(id, |j| j.state = JobState::Rejected);
        self.queue.retain(|&j| j != id);
        self.counters.rejected += 1;
        Ok(Record::Reject { id })
    }

    /// Hand a queued job to a machine's device. Returns the `Dispatch`
    /// record to journal (its `attempt` field is the job's consumed
    /// retry count).
    pub fn dispatch(
        &mut self,
        id: JobId,
        machine: usize,
        device: Device,
        start_s: f64,
        predicted_s: f64,
    ) -> Result<Record, TransitionError> {
        let job = self.jobs.get(id).ok_or(TransitionError::UnknownJob(id))?;
        if job.state != JobState::Queued {
            return Err(TransitionError::NotQueued(id));
        }
        let m = self
            .machines
            .get(machine)
            .ok_or(TransitionError::UnknownMachine(machine))?;
        if m.down {
            return Err(TransitionError::MachineDown(machine));
        }
        if let Some(occupant) = m.running[device.index()] {
            return Err(TransitionError::SlotBusy {
                machine,
                device,
                occupant,
            });
        }
        self.queue.retain(|&j| j != id);
        let attempt = self.edit_job(id, |j| {
            j.state = JobState::Running {
                machine,
                device,
                start_s,
                predicted_s,
            };
            j.dispatches += 1;
            j.retries
        });
        self.machines[machine].running[device.index()] = Some(id);
        self.counters.dispatched += 1;
        Ok(Record::Dispatch {
            id,
            machine,
            device,
            start_s,
            predicted_s,
            attempt,
        })
    }

    /// Mark a running job completed at `end_s`. Returns the `Done`
    /// record to journal.
    pub fn complete(&mut self, id: JobId, end_s: f64) -> Result<Record, TransitionError> {
        let job = self.jobs.get(id).ok_or(TransitionError::UnknownJob(id))?;
        let JobState::Running {
            machine,
            device,
            start_s,
            predicted_s,
        } = job.state
        else {
            return Err(TransitionError::NotRunning(id));
        };
        self.edit_job(id, |j| {
            j.state = JobState::Done {
                machine,
                device,
                start_s,
                end_s,
                predicted_s,
            }
        });
        self.release_slot(machine, device, id);
        self.counters.completed += 1;
        Ok(Record::Done {
            id,
            machine,
            device,
            start_s,
            end_s,
            predicted_s,
        })
    }

    /// A running job's execution was destroyed (injected failure or
    /// machine crash): consume one retry and requeue it behind a
    /// deterministic back-off, or dead-letter it once the budget is
    /// spent. `reason` describes the loss (e.g. "injected job failure").
    pub fn fail(
        &mut self,
        id: JobId,
        retry: &RetryPolicy,
        reason: &str,
    ) -> Result<FailReport, TransitionError> {
        let job = self.jobs.get(id).ok_or(TransitionError::UnknownJob(id))?;
        if job.retries >= retry.max_retries {
            let attempts = job.retries + 1;
            let why = format!("{reason}; gave up after {attempts} attempt(s)");
            self.fail_with(id, RequeueOutcome::DeadLetter { attempts }, &why)
        } else {
            let attempt = job.retries + 1;
            let backoff_s = retry.backoff_s(id, attempt);
            self.fail_with(id, RequeueOutcome::Retry { attempt, backoff_s }, reason)
        }
    }

    /// Apply an already-decided failure outcome. [`ServiceState::fail`]
    /// decides the outcome from the live [`RetryPolicy`];
    /// [`ServiceState::apply`] applies the one a `Requeue`/`Dead` journal
    /// record carries.
    /// Both paths share this one mutation so a replayed failure is
    /// bit-identical to the live one. `reason` is recorded verbatim.
    pub fn fail_with(
        &mut self,
        id: JobId,
        outcome: RequeueOutcome,
        reason: &str,
    ) -> Result<FailReport, TransitionError> {
        let job = self.jobs.get(id).ok_or(TransitionError::UnknownJob(id))?;
        let JobState::Running {
            machine,
            device,
            start_s,
            predicted_s,
        } = job.state
        else {
            return Err(TransitionError::NotRunning(id));
        };
        self.release_slot(machine, device, id);
        let record = match outcome {
            RequeueOutcome::DeadLetter { .. } => {
                self.edit_job(id, |j| {
                    j.state = JobState::DeadLetter {
                        reason: reason.to_string(),
                    }
                });
                self.counters.dead_lettered += 1;
                Record::Dead {
                    id,
                    reason: reason.to_string(),
                }
            }
            RequeueOutcome::Retry { attempt, backoff_s } => {
                self.edit_job(id, |j| {
                    j.retries = attempt;
                    j.state = JobState::Queued;
                });
                self.queue.push_back(id);
                self.counters.requeued += 1;
                Record::Requeue {
                    id,
                    attempt,
                    backoff_s,
                    reason: reason.to_string(),
                }
            }
        };
        Ok(FailReport {
            job: id,
            record,
            outcome,
            machine,
            device,
            start_s,
            predicted_s,
        })
    }

    /// A machine crashed at `at_s`: mark it down and push every job it
    /// hosted through the failure path (CPU slot first, then GPU).
    /// Returns the `Evict` record plus one [`FailReport`] per evicted
    /// job; journal the `Evict` record before the per-job records.
    pub fn crash(
        &mut self,
        machine: usize,
        at_s: f64,
        retry: &RetryPolicy,
        reason: &str,
    ) -> Result<(Record, Vec<FailReport>), TransitionError> {
        let m = self
            .machines
            .get(machine)
            .ok_or(TransitionError::UnknownMachine(machine))?;
        if m.down {
            return Err(TransitionError::MachineDown(machine));
        }
        let victims: Vec<JobId> = m.running.iter().flatten().copied().collect();
        self.evict_only(machine)
            .expect("machine existence and liveness checked above");
        let mut evicted = Vec::with_capacity(victims.len());
        for id in victims {
            let report = self
                .fail(id, retry, reason)
                .expect("slot occupant must be running");
            evicted.push(report);
        }
        Ok((Record::Evict { machine, at_s }, evicted))
    }

    /// Mark a machine down without touching its jobs: the replay half of
    /// [`ServiceState::crash`]. The live daemon journals one `Evict`
    /// record followed by a `Requeue`/`Dead` record per victim, so
    /// [`ServiceState::apply`] does the down-marking here and lets the
    /// journaled per-victim records do the rest through
    /// [`ServiceState::fail_with`].
    pub fn evict_only(&mut self, machine: usize) -> Result<(), TransitionError> {
        let m = self
            .machines
            .get_mut(machine)
            .ok_or(TransitionError::UnknownMachine(machine))?;
        if m.down {
            return Err(TransitionError::MachineDown(machine));
        }
        m.down = true;
        self.counters.evictions += 1;
        Ok(())
    }

    /// Clear a device slot the engine has vacated ahead of the harvest
    /// that will record why (completion or failure). The job itself is
    /// untouched; `complete`/`fail` tolerate an already-cleared slot.
    /// The live driver and [`ServiceState::apply`]'s `dispatch` use it;
    /// the model checker's atomic events never need it.
    pub fn vacate(&mut self, machine: usize, device: Device) {
        if let Some(m) = self.machines.get_mut(machine) {
            m.running[device.index()] = None;
        }
    }

    /// Stop accepting work. Idempotent.
    pub fn begin_shutdown(&mut self) {
        self.shutdown = true;
    }

    fn release_slot(&mut self, machine: usize, device: Device, id: JobId) {
        if let Some(m) = self.machines.get_mut(machine) {
            if m.running[device.index()] == Some(id) {
                m.running[device.index()] = None;
            }
        }
    }

    /// Every job ever accepted, dense by [`JobId`].
    pub fn jobs(&self) -> &[JobCore] {
        &self.jobs
    }

    /// Overwrite job `id` with `job`, or append it when `id` is the next
    /// free id, keeping the fingerprint's digest in step. This is the
    /// only public write to the job table: snapshot folding uses it to
    /// install decoded jobs, and tests use it to tamper with one.
    pub fn replace_job(&mut self, id: JobId, job: JobCore) -> Result<(), TransitionError> {
        match id.cmp(&self.jobs.len()) {
            std::cmp::Ordering::Less => self.edit_job(id, |j| *j = job),
            std::cmp::Ordering::Equal => {
                self.push_job(job);
            }
            std::cmp::Ordering::Greater => return Err(TransitionError::UnknownJob(id)),
        }
        Ok(())
    }

    /// Append `job` to the table and its digest to the running sum.
    fn push_job(&mut self, job: JobCore) -> JobId {
        let id = self.jobs.len();
        self.jobs_digest = self.jobs_digest.wrapping_add(job_digest(id, &job));
        self.jobs.push(job);
        id
    }

    /// Apply `f` to job `id`, swapping its old digest for its new one in
    /// the running sum. `id` must be in range.
    fn edit_job<T>(&mut self, id: JobId, f: impl FnOnce(&mut JobCore) -> T) -> T {
        let job = &mut self.jobs[id];
        let old = job_digest(id, job);
        let out = f(job);
        self.jobs_digest = self
            .jobs_digest
            .wrapping_sub(old)
            .wrapping_add(job_digest(id, job));
        out
    }

    /// Re-apply one journal record through the transition that wrote it,
    /// and check the transition yields exactly that record. `meta` resets
    /// the state to the journal's shape, `recovered` is
    /// [`ServiceState::recover`], and `cap` and `snapshot` change nothing
    /// here. Pure; on `Err` the record may be half applied, so a fold
    /// stops at the first refusal.
    pub fn apply(&mut self, rec: &Record) -> Result<(), String> {
        let got = match rec {
            Record::Meta { machines, .. } => {
                *self = ServiceState::new(*machines);
                return Ok(());
            }
            Record::Recovered { machines, .. } => {
                self.recover(*machines);
                Ok(Record::Recovered {
                    jobs: self.jobs.len(),
                    machines: *machines,
                })
            }
            Record::Accept {
                name,
                program,
                scale,
                ..
            } => self.accept(name, program, *scale).map(|(_, got)| got),
            Record::Reject { id } => self.reject(*id),
            Record::Dispatch {
                id,
                machine,
                device,
                start_s,
                predicted_s,
                ..
            } => {
                // Mirror the live driver: the engine's poll clears the
                // slot the previous occupant held before the dispatch
                // runs (the occupant's own record follows later).
                self.vacate(*machine, *device);
                self.dispatch(*id, *machine, *device, *start_s, *predicted_s)
            }
            Record::Done { id, end_s, .. } => self.complete(*id, *end_s),
            Record::Requeue {
                id,
                attempt,
                backoff_s,
                reason,
            } => {
                let outcome = RequeueOutcome::Retry {
                    attempt: *attempt,
                    backoff_s: *backoff_s,
                };
                self.fail_with(*id, outcome, reason).map(|f| f.record)
            }
            Record::Dead { id, reason } => {
                let attempts = self.jobs.get(*id).map_or(1, |j| j.retries + 1);
                self.fail_with(*id, RequeueOutcome::DeadLetter { attempts }, reason)
                    .map(|f| f.record)
            }
            // The per-victim `requeue`/`dead` records follow the `evict`.
            Record::Evict { machine, .. } => self.evict_only(*machine).map(|()| rec.clone()),
            Record::ShutdownBegin => {
                self.begin_shutdown();
                return Ok(());
            }
            Record::CapChange { .. } | Record::Snapshot { .. } => return Ok(()),
        }
        .map_err(|e| format!("re-applying {rec:?} was refused: {e}"))?;
        if got == *rec {
            Ok(())
        } else {
            Err(format!(
                "journal recorded {rec:?} but re-applying produced {got:?}"
            ))
        }
    }

    /// Fold `records` into a fresh state for `machines` machines through
    /// [`ServiceState::apply`] (a leading `meta` record sets its own
    /// machine count). On refusal, the index of the refused record and
    /// why.
    pub fn fold(machines: usize, records: &[Record]) -> Result<ServiceState, (usize, String)> {
        let mut st = ServiceState::new(machines);
        for (k, rec) in records.iter().enumerate() {
            st.apply(rec).map_err(|e| (k, e))?;
        }
        Ok(st)
    }

    /// Restart from this state on `machines` fresh machines, as
    /// `--recover` does after a kill: in-flight work goes back to the
    /// queue, which is rebuilt in id order; done work stays done at one
    /// dispatch and consumed retries survive; the counters are recounted
    /// from the job table. The old incarnation's crashes, evictions and
    /// shutdown die with it.
    pub fn recover(&mut self, machines: usize) {
        let jobs = std::mem::take(&mut self.jobs);
        *self = ServiceState::new(machines);
        for mut job in jobs {
            job.dispatches = 0;
            match job.state {
                JobState::Queued | JobState::Running { .. } => {
                    job.state = JobState::Queued;
                    self.queue.push_back(self.jobs.len());
                }
                JobState::Rejected => self.counters.rejected += 1,
                JobState::Done { .. } => {
                    job.dispatches = 1;
                    self.counters.dispatched += 1;
                    self.counters.completed += 1;
                }
                JobState::DeadLetter { .. } => self.counters.dead_lettered += 1,
            }
            self.counters.accepted += 1;
            self.counters.requeued += job.retries as usize;
            self.push_job(job);
        }
    }

    /// Check every structural safety invariant; an empty result means
    /// the state is sound. `docs/MODELCHECK.md` catalogs the properties.
    pub fn check_invariants(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut push = |kind: ViolationKind, detail: String| out.push(Violation { kind, detail });

        // Queue sanity: members exist, are Queued, and appear once.
        let mut queued_seen = vec![0usize; self.jobs.len()];
        for &id in &self.queue {
            match self.jobs.get(id) {
                None => push(
                    ViolationKind::JobLost,
                    format!("queue references unknown job {id}"),
                ),
                Some(j) => {
                    queued_seen[id] += 1;
                    if j.state != JobState::Queued {
                        push(
                            ViolationKind::DoubleDispatch,
                            format!("job {id} is in the queue but its state is {:?}", j.state),
                        );
                    }
                }
            }
        }
        for (id, &n) in queued_seen.iter().enumerate() {
            if n > 1 {
                push(
                    ViolationKind::DoubleDispatch,
                    format!("job {id} appears {n} times in the queue"),
                );
            }
        }

        // Slot sanity: occupants exist, run exactly where the slot says,
        // and no job holds two slots.
        let mut slot_of = vec![0usize; self.jobs.len()];
        for (mi, m) in self.machines.iter().enumerate() {
            for &dev in &Device::ALL {
                let Some(id) = m.running[dev.index()] else {
                    continue;
                };
                match self.jobs.get(id) {
                    None => push(
                        ViolationKind::JobLost,
                        format!("machine {mi} {dev:?} slot references unknown job {id}"),
                    ),
                    Some(j) => {
                        slot_of[id] += 1;
                        match j.state {
                            JobState::Running {
                                machine, device, ..
                            } if machine == mi && device == dev => {}
                            _ => push(
                                ViolationKind::DoubleDispatch,
                                format!(
                                    "machine {mi} {dev:?} slot holds job {id} whose state is {:?}",
                                    j.state
                                ),
                            ),
                        }
                    }
                }
            }
        }

        // Per-job placement: every job is reachable from where its state
        // says it lives.
        for (id, j) in self.jobs.iter().enumerate() {
            match &j.state {
                JobState::Queued => {
                    if queued_seen[id] == 0 {
                        push(
                            ViolationKind::JobLost,
                            format!("job {id} is Queued but absent from the queue"),
                        );
                    }
                }
                JobState::Running {
                    machine, device, ..
                } => {
                    match self.machines.get(*machine) {
                        None => push(
                            ViolationKind::JobLost,
                            format!("job {id} claims unknown machine {machine}"),
                        ),
                        Some(m) => {
                            if m.down {
                                push(
                                    ViolationKind::JobLost,
                                    format!("job {id} is Running on crashed machine {machine}"),
                                );
                            } else if m.running[device.index()] != Some(id) {
                                push(
                                    ViolationKind::JobLost,
                                    format!(
                                        "job {id} is Running on machine {machine} {device:?} \
                                         but the slot disagrees"
                                    ),
                                );
                            }
                        }
                    }
                    if slot_of[id] > 1 {
                        push(
                            ViolationKind::DoubleDispatch,
                            format!("job {id} occupies {} slots", slot_of[id]),
                        );
                    }
                }
                JobState::Rejected | JobState::Done { .. } | JobState::DeadLetter { .. } => {}
            }
        }

        // Books balance: counters against the job table.
        let count = |f: &dyn Fn(&JobCore) -> bool| self.jobs.iter().filter(|j| f(j)).count();
        let checks: [(&str, usize, usize); 6] = [
            ("accepted", self.counters.accepted, self.jobs.len()),
            (
                "rejected",
                self.counters.rejected,
                count(&|j| j.state == JobState::Rejected),
            ),
            (
                "completed",
                self.counters.completed,
                count(&|j| matches!(j.state, JobState::Done { .. })),
            ),
            (
                "dead_lettered",
                self.counters.dead_lettered,
                count(&|j| matches!(j.state, JobState::DeadLetter { .. })),
            ),
            (
                "requeued",
                self.counters.requeued,
                self.jobs.iter().map(|j| j.retries as usize).sum(),
            ),
            (
                "dispatched",
                self.counters.dispatched,
                self.jobs.iter().map(|j| j.dispatches as usize).sum(),
            ),
        ];
        for (name, counter, table) in checks {
            if counter != table {
                push(
                    ViolationKind::BooksImbalance,
                    format!("counter {name}={counter} but the job table says {table}"),
                );
            }
        }

        // Digest drift: the running sum the fingerprint reads against the
        // job table, summed from scratch.
        let table_digest = self
            .jobs
            .iter()
            .enumerate()
            .fold(0u64, |acc, (id, j)| acc.wrapping_add(job_digest(id, j)));
        if self.jobs_digest != table_digest {
            push(
                ViolationKind::BooksImbalance,
                format!(
                    "jobs digest {:016x} but the job table sums to {table_digest:016x}",
                    self.jobs_digest
                ),
            );
        }
        out
    }

    /// A 64-bit fingerprint of the whole state, for the model checker's
    /// visited-state memoization and the journal's snapshot checkpoints.
    /// It is FNV-1a over the job count, the running job digest (the
    /// wrapping sum of `job_digest` over the table), the queue, the
    /// machines, the shutdown flag and the counters, so it costs
    /// O(queue + machines), not O(jobs ever admitted). Equal states
    /// fingerprint equal; collisions are possible but at 64 bits
    /// negligible at model-checking scope.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.jobs.len() as u64);
        h.u64(self.jobs_digest);
        h.u64(self.queue.len() as u64);
        for &id in &self.queue {
            h.u64(id as u64);
        }
        h.u64(self.machines.len() as u64);
        for m in &self.machines {
            h.u64(u64::from(m.down));
            for slot in m.running {
                match slot {
                    Some(id) => {
                        h.u64(1);
                        h.u64(id as u64);
                    }
                    None => h.u64(0),
                }
            }
        }
        h.u64(u64::from(self.shutdown));
        for c in [
            self.counters.accepted,
            self.counters.rejected,
            self.counters.dispatched,
            self.counters.completed,
            self.counters.requeued,
            self.counters.dead_lettered,
            self.counters.evictions,
        ] {
            h.u64(c as u64);
        }
        h.finish()
    }
}

/// FNV-1a over job `id` and a canonical walk of `j`'s fields, with a
/// splitmix64 finalizer. The fingerprint sums these digests, and a sum
/// ignores order, so the id is hashed in: the same two jobs at swapped
/// ids digest differently. The finalizer matters for the same reason:
/// raw FNV-1a digests of near-identical jobs are correlated, and their
/// sums collided often enough that the model checker merged distinct
/// states.
fn job_digest(id: JobId, j: &JobCore) -> u64 {
    let mut h = Fnv::new();
    h.u64(id as u64);
    h.str(&j.name);
    h.str(&j.program);
    h.f64(j.scale);
    h.u64(u64::from(j.retries));
    h.u64(u64::from(j.dispatches));
    match &j.state {
        JobState::Queued => h.u64(0),
        JobState::Rejected => h.u64(1),
        JobState::Running {
            machine,
            device,
            start_s,
            predicted_s,
        } => {
            h.u64(2);
            h.u64(*machine as u64);
            h.u64(device.index() as u64);
            h.f64(*start_s);
            h.f64(*predicted_s);
        }
        JobState::Done {
            machine,
            device,
            start_s,
            end_s,
            predicted_s,
        } => {
            h.u64(3);
            h.u64(*machine as u64);
            h.u64(device.index() as u64);
            h.f64(*start_s);
            h.f64(*end_s);
            h.f64(*predicted_s);
        }
        JobState::DeadLetter { reason } => {
            h.u64(4);
            h.str(reason);
        }
    }
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, 64-bit. Deterministic across runs and platforms (no
/// `RandomState`), which keeps model-checking traces reproducible.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retry() -> RetryPolicy {
        RetryPolicy {
            max_retries: 1,
            backoff_base_s: 0.01,
            backoff_max_s: 0.05,
        }
    }

    fn clean(st: &ServiceState) {
        let v = st.check_invariants();
        assert!(v.is_empty(), "violations: {v:?}");
    }

    /// Check the journaled records fold back to exactly the state.
    fn consistent(st: &ServiceState, records: &[Record]) {
        let folded = ServiceState::fold(st.machines.len(), records).expect("the journal folds");
        assert_eq!(&folded, st);
    }

    #[test]
    fn accept_dispatch_complete_roundtrip() {
        let mut st = ServiceState::new(1);
        let mut log = Vec::new();
        let (a, rec) = st.accept("srad#0", "srad", 0.2).unwrap();
        log.push(rec);
        let (b, rec) = st.accept("lud#0", "lud", 0.1).unwrap();
        log.push(rec);
        assert_eq!((a, b), (0, 1));
        clean(&st);

        log.push(st.dispatch(a, 0, Device::Gpu, 0.0, 2.0).unwrap());
        log.push(st.dispatch(b, 0, Device::Cpu, 0.0, 3.0).unwrap());
        clean(&st);
        assert_eq!(st.machines[0].running, [Some(b), Some(a)]);

        log.push(st.complete(a, 1.9).unwrap());
        log.push(st.complete(b, 3.1).unwrap());
        clean(&st);
        consistent(&st, &log);
        assert_eq!(st.counters.completed, 2);
        assert_eq!(st.counters.dispatched, 2);
        assert!(st.queue.is_empty());
        assert_eq!(st.machines[0].running, [None, None]);
    }

    #[test]
    fn illegal_transitions_are_refused_and_harmless() {
        let mut st = ServiceState::new(1);
        let (a, _) = st.accept("srad#0", "srad", 0.2).unwrap();
        let before = st.clone();
        assert_eq!(st.complete(a, 1.0), Err(TransitionError::NotRunning(a)));
        assert_eq!(
            st.dispatch(7, 0, Device::Cpu, 0.0, 1.0),
            Err(TransitionError::UnknownJob(7))
        );
        assert_eq!(
            st.dispatch(a, 3, Device::Cpu, 0.0, 1.0),
            Err(TransitionError::UnknownMachine(3))
        );
        assert_eq!(before, st, "failed transitions must not mutate");

        st.dispatch(a, 0, Device::Cpu, 0.0, 1.0).unwrap();
        assert_eq!(
            st.dispatch(a, 0, Device::Cpu, 1.0, 1.0),
            Err(TransitionError::NotQueued(a))
        );
        let (b, _) = st.accept("lud#0", "lud", 0.1).unwrap();
        assert_eq!(
            st.dispatch(b, 0, Device::Cpu, 1.0, 1.0),
            Err(TransitionError::SlotBusy {
                machine: 0,
                device: Device::Cpu,
                occupant: a
            })
        );
        clean(&st);
    }

    #[test]
    fn fail_retries_then_dead_letters() {
        let mut st = ServiceState::new(1);
        let mut log = Vec::new();
        let (a, rec) = st.accept("srad#0", "srad", 0.2).unwrap();
        log.push(rec);
        log.push(st.dispatch(a, 0, Device::Gpu, 0.0, 2.0).unwrap());
        let r1 = st.fail(a, &retry(), "injected job failure").unwrap();
        log.push(r1.record.clone());
        assert!(matches!(
            r1.outcome,
            RequeueOutcome::Retry { attempt: 1, .. }
        ));
        assert_eq!(st.jobs[a].state, JobState::Queued);
        assert_eq!(st.counters.requeued, 1);
        clean(&st);

        log.push(st.dispatch(a, 0, Device::Gpu, 1.0, 2.0).unwrap());
        let r2 = st.fail(a, &retry(), "injected job failure").unwrap();
        log.push(r2.record.clone());
        assert!(matches!(
            r2.outcome,
            RequeueOutcome::DeadLetter { attempts: 2 }
        ));
        match &st.jobs[a].state {
            JobState::DeadLetter { reason } => {
                assert!(reason.contains("2 attempt"), "reason: {reason}");
            }
            other => panic!("expected dead-letter, got {other:?}"),
        }
        assert_eq!(st.counters.dead_lettered, 1);
        clean(&st);
        consistent(&st, &log);
    }

    #[test]
    fn crash_evicts_both_slots() {
        let mut st = ServiceState::new(2);
        let mut log = Vec::new();
        for (name, program) in [("srad#0", "srad"), ("lud#0", "lud"), ("nw#0", "nw")] {
            let (_, rec) = st.accept(name, program, 0.1).unwrap();
            log.push(rec);
        }
        log.push(st.dispatch(0, 0, Device::Cpu, 0.0, 2.0).unwrap());
        log.push(st.dispatch(1, 0, Device::Gpu, 0.0, 2.0).unwrap());
        log.push(st.dispatch(2, 1, Device::Gpu, 0.0, 2.0).unwrap());

        let (evict, reports) = st.crash(0, 1.5, &retry(), "machine crash").unwrap();
        log.push(evict);
        for r in &reports {
            log.push(r.record.clone());
        }
        assert_eq!(reports.len(), 2);
        assert!(st.machines[0].down);
        assert_eq!(st.machines[0].running, [None, None]);
        // Both victims got their first retry and went back to the queue.
        assert_eq!(st.queue.len(), 2);
        assert_eq!(st.counters.evictions, 1);
        assert_eq!(st.counters.requeued, 2);
        // Job 2 is untouched on the surviving machine.
        assert!(matches!(st.jobs[2].state, JobState::Running { .. }));
        clean(&st);
        consistent(&st, &log);

        // A second crash of the same machine is refused.
        assert_eq!(
            st.crash(0, 2.0, &retry(), "machine crash"),
            Err(TransitionError::MachineDown(0))
        );
        // Dispatching to the dead machine is refused.
        assert_eq!(
            st.dispatch(st.queue[0], 0, Device::Cpu, 2.0, 1.0),
            Err(TransitionError::MachineDown(0))
        );
    }

    #[test]
    fn restore_matches_replay_of_emitted_records() {
        let mut st = ServiceState::new(2);
        let mut log = Vec::new();
        for (name, program) in [("srad#0", "srad"), ("lud#0", "lud"), ("nw#0", "nw")] {
            let (_, rec) = st.accept(name, program, 0.1).unwrap();
            log.push(rec);
        }
        log.push(st.reject(2).unwrap());
        log.push(st.dispatch(0, 0, Device::Gpu, 0.0, 2.0).unwrap());
        log.push(st.complete(0, 1.8).unwrap());
        log.push(st.dispatch(1, 1, Device::Cpu, 0.0, 3.0).unwrap());
        let r = st.fail(1, &retry(), "injected job failure").unwrap();
        log.push(r.record);
        clean(&st);

        let mut restored = ServiceState::fold(2, &log).unwrap();
        restored.recover(2);
        clean(&restored);
        // The restored state agrees with the live one on every
        // journal-visible fact (machine slots are engine-side and reset).
        assert_eq!(restored.jobs.len(), st.jobs.len());
        for (live, back) in st.jobs.iter().zip(&restored.jobs) {
            assert_eq!(live.state, back.state);
            assert_eq!(live.retries, back.retries);
        }
        assert_eq!(restored.counters.completed, st.counters.completed);
        assert_eq!(restored.counters.requeued, st.counters.requeued);
        assert_eq!(restored.counters.rejected, st.counters.rejected);
        // Recovering is a fixed point, and the fold is exactly as good
        // as recovering the live state.
        let mut again = restored.clone();
        again.recover(2);
        assert_eq!(again, restored);
        st.recover(2);
        assert_eq!(st, restored);
    }

    #[test]
    fn recover_requeues_in_flight_work_in_id_order() {
        let mut st = ServiceState::new(2);
        for k in 0..4 {
            st.accept(&format!("srad#{k}"), "srad", 0.1).unwrap();
        }
        st.dispatch(3, 0, Device::Gpu, 0.0, 1.0).unwrap();
        st.dispatch(1, 1, Device::Cpu, 0.0, 1.0).unwrap();
        st.crash(1, 0.5, &retry(), "crash").unwrap();
        st.begin_shutdown();
        st.recover(3);
        clean(&st);
        assert_eq!(st.queue, [0, 1, 2, 3]);
        assert_eq!(st.machines, vec![MachineCore::default(); 3]);
        assert!(!st.shutdown);
        assert_eq!(st.counters.evictions, 0);
        assert_eq!(st.counters.dispatched, 0);
        assert_eq!(st.jobs[1].retries, 1, "consumed retries survive");
    }

    #[test]
    fn shutdown_refuses_admission() {
        let mut st = ServiceState::new(1);
        st.begin_shutdown();
        assert_eq!(
            st.accept("srad#0", "srad", 0.2),
            Err(TransitionError::ShuttingDown)
        );
        clean(&st);
    }

    #[test]
    fn fingerprint_tracks_state_identity() {
        let mut a = ServiceState::new(1);
        let mut b = ServiceState::new(1);
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.accept("srad#0", "srad", 0.2).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        b.accept("srad#0", "srad", 0.2).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.dispatch(0, 0, Device::Cpu, 0.0, 1.0).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let snap = a.clone();
        assert_eq!(snap.fingerprint(), a.fingerprint());
    }

    #[test]
    fn swapped_ids_fingerprint_differently() {
        // A sum ignores order, so without the id in each digest these two
        // tables (the same two jobs, swapped) would fingerprint alike.
        let mut a = ServiceState::new(1);
        a.accept("srad#0", "srad", 0.2).unwrap();
        a.accept("lud#0", "lud", 0.1).unwrap();
        let mut b = ServiceState::new(1);
        b.accept("lud#0", "lud", 0.1).unwrap();
        b.accept("srad#0", "srad", 0.2).unwrap();
        assert_eq!(a.jobs()[0], b.jobs()[1]);
        assert_eq!(a.jobs()[1], b.jobs()[0]);
        assert_eq!((a.queue.clone(), a.counters), (b.queue.clone(), b.counters));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn replace_job_keeps_the_digest_and_refuses_gaps() {
        let mut st = ServiceState::new(1);
        st.accept("srad#0", "srad", 0.2).unwrap();
        let before = st.fingerprint();
        let mut job = st.jobs()[0].clone();
        job.retries += 1;
        st.replace_job(0, job.clone()).unwrap();
        assert_eq!(st.jobs_digest, scratch_digest(&st));
        assert_ne!(st.fingerprint(), before);
        st.replace_job(1, job.clone()).unwrap();
        assert_eq!(st.jobs().len(), 2);
        assert_eq!(st.jobs_digest, scratch_digest(&st));
        assert_eq!(st.replace_job(3, job), Err(TransitionError::UnknownJob(3)));
    }

    /// The job digest summed from scratch over the table.
    fn scratch_digest(st: &ServiceState) -> u64 {
        st.jobs()
            .iter()
            .enumerate()
            .fold(0, |acc, (id, j)| acc.wrapping_add(job_digest(id, j)))
    }

    const WALK_MACHINES: usize = 2;

    /// Apply one random step to `st`, journaling its records to `log`
    /// and the ids it named to `touched`. Refused transitions are
    /// skipped, as a random walk proposes illegal moves. Step 6 is a
    /// kill and restart (`recover` of the folded journal); step 7
    /// folds the records since the last fold into `folded` through
    /// `snapshot::apply_state`.
    fn walk_step(
        (op, a, b): (usize, usize, usize),
        st: &mut ServiceState,
        folded: &mut ServiceState,
        log: &mut Vec<Record>,
        touched: &mut Vec<JobId>,
    ) {
        let retry = retry();
        let jobs = st.jobs().len();
        match op {
            0 => {
                if let Ok((id, rec)) = st.accept(&format!("job#{jobs}"), "prog", 1.0) {
                    log.push(rec);
                    touched.push(id);
                }
            }
            1 if jobs > 0 => {
                let device = if b % 2 == 0 { Device::Cpu } else { Device::Gpu };
                if let Ok(rec) = st.dispatch(a % jobs, b % WALK_MACHINES, device, a as f64, 1.5) {
                    log.push(rec);
                    touched.push(a % jobs);
                }
            }
            2 if jobs > 0 => {
                if let Ok(rec) = st.complete(a % jobs, b as f64 + 0.25) {
                    log.push(rec);
                    touched.push(a % jobs);
                }
            }
            3 if jobs > 0 => {
                if let Ok(report) = st.fail(a % jobs, &retry, "walk failure") {
                    log.push(report.record);
                    touched.push(a % jobs);
                }
            }
            4 if jobs > 0 => {
                if let Ok(rec) = st.reject(a % jobs) {
                    log.push(rec);
                    touched.push(a % jobs);
                }
            }
            5 => {
                if let Ok((evict, reports)) = st.crash(a % WALK_MACHINES, 1.0, &retry, "crash") {
                    log.push(evict);
                    for r in reports {
                        touched.push(r.job);
                        log.push(r.record);
                    }
                }
            }
            6 => {
                *st = ServiceState::fold(WALK_MACHINES, log).expect("a walk's journal folds");
                st.recover(WALK_MACHINES);
                log.push(Record::Recovered {
                    jobs: st.jobs().len(),
                    machines: WALK_MACHINES,
                });
                touched.extend(0..st.jobs().len());
            }
            7 => {
                let doc = crate::snapshot::encode_state(st, touched.drain(..));
                crate::snapshot::apply_state(folded, &doc).expect("a delta folds");
                assert_eq!(folded, st, "the folded snapshots drifted from the state");
            }
            _ => {}
        }
    }

    /// A seeded walk with a crash, a restart and a job in flight at the
    /// end: random accept/dispatch/complete/fail/reject steps with a
    /// crash at step 12 and a kill at step 24, then one fresh job
    /// accepted and dispatched to the first free slot.
    fn seeded_walk(seed: u64) -> (ServiceState, Vec<Record>) {
        let mut rng = corun_core::DetRng::new(seed);
        let mut st = ServiceState::new(WALK_MACHINES);
        let mut folded = ServiceState::new(0);
        let (mut log, mut touched) = (Vec::new(), Vec::new());
        let mut step =
            |st: &mut ServiceState, step| walk_step(step, st, &mut folded, &mut log, &mut touched);
        for k in 0..49 {
            let mut draw = |n: u64| (rng.next_u64() % n) as usize;
            let op = match k {
                12 => 5,
                24 => 6,
                _ => draw(5),
            };
            step(&mut st, (op, draw(6), draw(4)));
        }
        step(&mut st, (0, 0, 0));
        let id = st.jobs().len() - 1;
        let (machine, device) = (0..WALK_MACHINES)
            .flat_map(|m| Device::ALL.map(|d| (m, d)))
            .find(|&(m, d)| !st.machines[m].down && st.machines[m].running[d.index()].is_none())
            .expect("a free slot");
        log.push(st.dispatch(id, machine, device, 9.0, 1.5).unwrap());
        (st, log)
    }

    /// Recovery fingerprints taken from the disposition replay this fold
    /// replaced: journals written before the change must keep recovering
    /// to the same state.
    #[test]
    fn recovery_reproduces_pinned_fingerprints() {
        let recovered = |machines, log: &[Record]| {
            let mut st = ServiceState::fold(machines, log).expect("the journal folds");
            st.recover(machines);
            st.fingerprint()
        };
        let sample = crate::journal::tests::sample_records();
        assert_eq!(recovered(1, &sample), 0x8965_2385_484b_d348);
        for (seed, pin) in [
            (1, 0x3fdc_71b7_9b89_517c),
            (2, 0x8d00_c1dd_19df_2b69),
            (5, 0xa760_8f79_6a29_8dec),
        ] {
            let (_, log) = seeded_walk(seed);
            assert!(log.iter().any(|r| matches!(r, Record::Recovered { .. })));
            assert_eq!(recovered(WALK_MACHINES, &log), pin, "seed {seed}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Whatever sequence of transitions, restarts and snapshot folds
        /// runs, the maintained digest equals the from-scratch sum after
        /// every step, in the live state and in the folded one.
        #[test]
        fn maintained_digest_matches_a_scratch_sum(
            steps in proptest::collection::vec((0usize..8, 0usize..6, 0usize..4), 0..64)
        ) {
            let mut st = ServiceState::new(WALK_MACHINES);
            let mut folded = ServiceState::new(0);
            let mut log = Vec::new();
            let mut touched = Vec::new();
            for step in steps {
                walk_step(step, &mut st, &mut folded, &mut log, &mut touched);
                proptest::prop_assert_eq!(st.jobs_digest, scratch_digest(&st), "after {:?}", step);
                proptest::prop_assert_eq!(folded.jobs_digest, scratch_digest(&folded));
                proptest::prop_assert!(st.check_invariants().is_empty(), "{:?}", st.check_invariants());
            }
        }
    }

    #[test]
    fn seeded_corruption_is_caught() {
        // The checks the model checker relies on actually fire.
        let mut st = ServiceState::new(1);
        st.accept("srad#0", "srad", 0.2).unwrap();
        st.queue.clear(); // lose the job
        assert!(st
            .check_invariants()
            .iter()
            .any(|v| v.kind == ViolationKind::JobLost));

        let mut st = ServiceState::new(1);
        st.accept("srad#0", "srad", 0.2).unwrap();
        st.queue.push_back(0); // duplicate admission
        assert!(st
            .check_invariants()
            .iter()
            .any(|v| v.kind == ViolationKind::DoubleDispatch));

        let mut st = ServiceState::new(1);
        st.accept("srad#0", "srad", 0.2).unwrap();
        st.counters.accepted = 5;
        assert!(st
            .check_invariants()
            .iter()
            .any(|v| v.kind == ViolationKind::BooksImbalance));

        let mut st = ServiceState::new(1);
        st.accept("srad#0", "srad", 0.2).unwrap();
        st.jobs_digest ^= 1; // a write that skipped the digest
        assert!(st
            .check_invariants()
            .iter()
            .any(|v| v.kind == ViolationKind::BooksImbalance && v.detail.contains("digest")));
    }
}
