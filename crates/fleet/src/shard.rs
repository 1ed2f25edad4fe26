//! Shard backends: the coordinator's uniform view of one shard, whether
//! it is an in-process [`corun_serve::Service`] or a remote `corun
//! serve` daemon reached over the line-JSON protocol.

use crate::net::RpcSnapshot;
use apu_sim::FaultPlan;
use corun_serve::{JobState, LoadSnapshot, Service, ServiceConfig, SubmitError};
use std::path::Path;

/// What happened to one submission attempt.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// The shard accepted the jobs under these shard-local ids.
    Accepted(Vec<usize>),
    /// Queue full; try again after the hint.
    Backpressure {
        /// Server back-off hint, seconds.
        retry_after_s: f64,
    },
    /// Permanently refused (lint failure, cap-infeasible): terminal.
    Refused(String),
    /// The request certainly never reached the shard (connect refused,
    /// shutting down): the job stays with the coordinator and the shard
    /// is marked dead. Safe to re-place elsewhere.
    Down(String),
    /// The RPC failed *after* the request may have been delivered (reply
    /// lost to a partition, timeout, truncated frame): the shard may be
    /// running the job. The coordinator must pin it in-doubt and resolve
    /// by resubmitting the same key to the same shard — never re-place.
    Indeterminate(String),
}

/// Coordinator-level view of one shard-local job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, not yet terminal (queued or running).
    Pending,
    /// Finished.
    Done,
    /// Retry budget exhausted on the shard.
    DeadLetter,
    /// Rejected by the shard's admission gate.
    Rejected,
    /// The shard does not know the id — a restarted, unrecovered
    /// incarnation. The coordinator requeues the job elsewhere.
    Unknown,
}

/// The slice of a shard's metrics the coordinator consumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardMetrics {
    /// Jobs admitted but not yet dispatched.
    pub queue_depth: usize,
    /// Jobs ever admitted (accepted minus admission-rejected).
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs dead-lettered.
    pub dead_lettered: usize,
    /// Worker threads still alive.
    pub workers_alive: usize,
    /// Simulated machines.
    pub machines: usize,
    /// The shard's live power cap, watts.
    pub cap_w: f64,
    /// Power samples above the cap.
    pub cap_violations: usize,
    /// Power samples observed.
    pub cap_samples: usize,
}

impl ShardMetrics {
    /// Admitted-but-unfinished jobs — the demand weight the budget
    /// partitioner splits the cluster cap by.
    pub fn demand_jobs(&self) -> usize {
        self.submitted
            .saturating_sub(self.completed + self.dead_lettered)
    }

    /// A shard with no live workers can accept but never finish work.
    pub fn is_alive(&self) -> bool {
        self.workers_alive > 0
    }

    /// Overwrite the counters a reply's `load` carries; the rest stays as
    /// the last full snapshot left it.
    pub fn merge_load(&mut self, load: &LoadSnapshot) {
        self.queue_depth = load.queue_depth;
        self.submitted = load.submitted;
        self.completed = load.completed;
        self.dead_lettered = load.dead_lettered;
        self.workers_alive = load.workers_alive;
    }
}

/// One shard as the coordinator drives it.
pub trait ShardBackend: Send {
    /// Submit one spec fragment under a fleet-unique idempotency `key`.
    /// Resubmitting the same key to the same shard is safe: a shard that
    /// already admitted it replies with the original ids instead of
    /// running the job twice.
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome;

    /// Phase of one shard-local job. `Err` means the shard is down.
    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String>;

    /// Submit `(key, spec)` items as one keyed batch: one outcome per
    /// attempted item, in order, each with [`ShardBackend::submit`]'s
    /// meaning. Items past the end of the returned vector were not
    /// attempted. This default submits one item at a time and stops at
    /// the first outcome that is neither `Accepted` nor `Refused`;
    /// backends with a batch RPC override it.
    fn submit_batch(&mut self, items: &[(String, String)]) -> Vec<SubmitOutcome> {
        let mut outcomes = Vec::with_capacity(items.len());
        for (key, spec) in items {
            let outcome = self.submit(key, spec);
            let settled = matches!(
                outcome,
                SubmitOutcome::Accepted(_) | SubmitOutcome::Refused(_)
            );
            outcomes.push(outcome);
            if !settled {
                break;
            }
        }
        outcomes
    }

    /// Phases of several shard-local jobs, in order. `Err` means the
    /// shard is down and no phase can be trusted. This default asks one
    /// job at a time; backends with a batch RPC override it.
    fn job_phases(&mut self, local_ids: &[usize]) -> Result<Vec<JobPhase>, String> {
        local_ids.iter().map(|&id| self.job_phase(id)).collect()
    }

    /// Metrics snapshot. `Err` means the shard is down.
    fn metrics(&mut self) -> Result<ShardMetrics, String>;

    /// Push a rebalanced power cap.
    fn set_cap(&mut self, cap_w: f64) -> Result<(), String>;

    /// Bring a dead shard back under `cap_w`: restart the in-process
    /// service with journal recovery, or reconnect to an externally
    /// restarted daemon and push the cap.
    fn recover(&mut self, cap_w: f64) -> Result<(), String>;

    /// Ask the shard to stop accepting work and drain.
    fn begin_shutdown(&mut self);

    /// Block until the shard is fully stopped.
    fn finish(&mut self);

    /// `"local"` or `"remote"`, for status output.
    fn kind(&self) -> &'static str;

    /// True once since the shard was last observed under a different
    /// boot nonce or a higher fencing epoch — i.e. it restarted or
    /// recovered behind the coordinator's back. The coordinator must
    /// re-resolve every outstanding job it had on the shard.
    fn take_incarnation_change(&mut self) -> bool {
        false
    }

    /// Transport-level RPC counters (zero for in-process shards without
    /// an injected transport).
    fn rpc_stats(&self) -> RpcSnapshot {
        RpcSnapshot::default()
    }

    /// [`RpcSnapshot::fenced`] alone, which the coordinator reads every
    /// round; backends that keep latency percentiles override it so the
    /// read does not compute them.
    fn fenced_replies(&self) -> u64 {
        self.rpc_stats().fenced
    }

    /// The `load` the last keyed `submit` batch or multi-id `status` reply
    /// carried, taken once. `None` when that reply carried none (a
    /// protocol-2 daemon, an in-process shard) or the call failed. The
    /// coordinator takes it right after each such call.
    fn take_load(&mut self) -> Option<LoadSnapshot> {
        None
    }
}

/// An in-process shard: a [`Service`] plus the config to rebuild it for
/// journal recovery.
pub struct LocalShard {
    cfg: ServiceConfig,
    service: Option<Service>,
}

impl LocalShard {
    /// Start the shard's service.
    pub fn start(cfg: ServiceConfig) -> LocalShard {
        LocalShard {
            service: Some(Service::start(cfg.clone())),
            cfg,
        }
    }

    /// Direct access for tests.
    pub fn service(&self) -> Option<&Service> {
        self.service.as_ref()
    }
}

impl ShardBackend for LocalShard {
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
        let mut outcomes = self.submit_batch(&[(key.to_string(), spec.to_string())]);
        outcomes.pop().expect("one outcome per item")
    }

    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
        Ok(self.job_phases(&[local_id])?[0])
    }

    fn submit_batch(&mut self, items: &[(String, String)]) -> Vec<SubmitOutcome> {
        let Some(service) = &self.service else {
            return vec![SubmitOutcome::Down("shard stopped".into()); items.len()];
        };
        let items: Vec<(&str, &str)> = items
            .iter()
            .map(|(key, spec)| (key.as_str(), spec.as_str()))
            .collect();
        service
            .submit_keyed_batch(&items)
            .into_iter()
            .map(local_outcome)
            .collect()
    }

    fn job_phases(&mut self, local_ids: &[usize]) -> Result<Vec<JobPhase>, String> {
        let Some(service) = &self.service else {
            return Err("shard stopped".into());
        };
        let states = service.job_states(local_ids);
        if let Some(failed) = service.journal_failure() {
            return Err(failed.to_string());
        }
        Ok(states
            .iter()
            .map(|state| match state {
                None => JobPhase::Unknown,
                Some(JobState::Done { .. }) => JobPhase::Done,
                Some(JobState::DeadLetter { .. }) => JobPhase::DeadLetter,
                Some(JobState::Rejected) => JobPhase::Rejected,
                Some(JobState::Queued | JobState::Running { .. }) => JobPhase::Pending,
            })
            .collect())
    }

    fn metrics(&mut self) -> Result<ShardMetrics, String> {
        let Some(service) = &self.service else {
            return Err("shard stopped".into());
        };
        let m = service.metrics();
        Ok(ShardMetrics {
            queue_depth: m.queue_depth,
            submitted: m.submitted,
            completed: m.completed,
            dead_lettered: m.dead_lettered,
            workers_alive: m.workers_alive,
            machines: m.machines,
            cap_w: m.cap_w,
            cap_violations: m.cap_violations,
            cap_samples: m.cap_samples,
        })
    }

    fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        match &self.service {
            Some(service) => service.set_cap_w(cap_w).map_err(|e| e.to_string()),
            None => Err("shard stopped".into()),
        }
    }

    fn recover(&mut self, cap_w: f64) -> Result<(), String> {
        if self.cfg.journal_path.is_none() {
            return Err("shard has no journal to recover from".into());
        }
        if let Some(old) = self.service.take() {
            // The workers are already dead (that is why we are here);
            // shutdown only reaps the threads.
            old.begin_shutdown();
            old.shutdown();
        }
        let mut cfg = self.cfg.clone();
        cfg.recover = true;
        if cap_w.is_finite() && cap_w > 0.0 {
            cfg.cap_w = cap_w;
        }
        // The injected faults already fired in the dead incarnation;
        // replaying them would crash the recovered shard at the same
        // simulated instants forever.
        cfg.fault_plan = None;
        self.cfg = cfg.clone();
        self.service = Some(Service::start(cfg));
        Ok(())
    }

    fn begin_shutdown(&mut self) {
        if let Some(service) = &self.service {
            service.begin_shutdown();
        }
    }

    fn finish(&mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}

/// The outcome of one in-process keyed submit.
fn local_outcome(r: Result<usize, SubmitError>) -> SubmitOutcome {
    match r {
        Ok(id) => SubmitOutcome::Accepted(vec![id]),
        Err(SubmitError::QueueFull { retry_after_s, .. }) => {
            SubmitOutcome::Backpressure { retry_after_s }
        }
        Err(SubmitError::ShuttingDown) => SubmitOutcome::Down("shutting down".into()),
        Err(e @ (SubmitError::Lint(_) | SubmitError::Infeasible { .. })) => {
            SubmitOutcome::Refused(e.to_string())
        }
        // The accept may be on the shard's disk without being durable:
        // pin the job here for keyed resolution.
        Err(e @ SubmitError::JournalFailed(_)) => SubmitOutcome::Indeterminate(e.to_string()),
    }
}

/// Start `shards` in-process shards from one [`ServiceConfig`]
/// template. Shard `s` journals to `journal_dir/shard-s.jsonl` (when a
/// dir is given) and runs `fault_plan(s)`. Shards start sequentially so
/// the first pays the characterization cost and the rest hit the cache
/// (set `template.cache_dir`).
pub fn start_local_shards(
    template: &ServiceConfig,
    shards: usize,
    machines_per_shard: usize,
    journal_dir: Option<&Path>,
    mut fault_plan: impl FnMut(usize) -> Option<FaultPlan>,
) -> Vec<Box<dyn ShardBackend>> {
    (0..shards)
        .map(|s| {
            let mut cfg = template.clone();
            cfg.machines = machines_per_shard;
            cfg.journal_path = journal_dir.map(|d| d.join(format!("shard-{s}.jsonl")));
            cfg.fault_plan = fault_plan(s);
            Box::new(LocalShard::start(cfg)) as Box<dyn ShardBackend>
        })
        .collect()
}

// The remote backend lives in [`crate::net`]: `RemoteShard` is
// `RpcShard<TcpRaw>` — deadline-bounded line-JSON RPC with reconnect,
// fencing-epoch checks, and per-shard latency counters.
