//! The fleet coordinator: placement, submission pumping, completion
//! tracking, work stealing, budget rebalancing, and shard recovery.
//!
//! The coordinator is deliberately a *polling* loop ([`Fleet::pump`])
//! rather than a callback web: every round it refreshes its view of the
//! shards, rebalances the cluster power budget on its cadence, steals
//! backlog between imbalanced shards, pushes submissions, and folds
//! terminal job states back into the [`Router`]. One thread drives
//! thousands of simulated machines this way; the shards do the heavy
//! lifting on their own worker threads (in-process mode) or in separate
//! daemons (remote mode).

use crate::fleetlog::{replay_fleetlog, FleetRecord, RecoveredLoc, FLEETLOG_FORMAT_VERSION};
use crate::net::RpcSnapshot;
use crate::placement::{HashRing, LeastLoaded, Placement, ShardView};
use crate::router::{FleetJob, FleetJobId, JobLoc, Router};
use crate::shard::{JobPhase, ShardBackend, ShardMetrics, SubmitOutcome};
use corun_core::budget::{partition_cluster_cap, ShardDemand};
use corun_serve::wal::{self, repair_tail, Journal};
use corun_serve::LoadSnapshot;
use corun_verify::{Code, Diagnostic, Report, Severity};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which placement policy the coordinator routes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// Consistent-hash ring by job key, least-loaded only as liveness
    /// fallback.
    Ring,
    /// Always the live shard with the shallowest load.
    LeastLoaded,
}

impl PlacementKind {
    fn build(self, shards: usize) -> Box<dyn Placement> {
        match self {
            PlacementKind::Ring => Box::new(HashRing::new(shards)),
            PlacementKind::LeastLoaded => Box::new(LeastLoaded),
        }
    }

    /// Parse `"ring"` / `"least-loaded"`.
    pub fn parse(s: &str) -> Result<PlacementKind, String> {
        match s {
            "ring" => Ok(PlacementKind::Ring),
            "least-loaded" => Ok(PlacementKind::LeastLoaded),
            other => Err(format!(
                "unknown placement `{other}` (expected `ring` or `least-loaded`)"
            )),
        }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Shard count (must match the backend vector handed to
    /// [`Fleet::new`]).
    pub shards: usize,
    /// Simulated machines per shard (topology metadata for lints and
    /// status output; the backends themselves define the truth).
    pub machines_per_shard: usize,
    /// The datacenter power cap partitioned across shards, watts.
    pub cluster_cap_w: f64,
    /// Minimum cap every live shard keeps, watts.
    pub shard_floor_w: f64,
    /// Queue-depth spread (max - min over live shards) that triggers
    /// work stealing.
    pub steal_threshold: usize,
    /// Max jobs one steal moves.
    pub steal_batch: usize,
    /// Rounds between budget rebalances. A rebalance round polls every
    /// shard with a full `metrics` call, so the partition weighs demand
    /// as the round starts.
    pub rebalance_every: usize,
    /// Stop submitting to a shard once its observed queue depth reaches
    /// this many jobs.
    pub queue_high_water: usize,
    /// Max submissions pushed to one shard in one round.
    pub submit_burst: usize,
    /// Placement policy.
    pub placement: PlacementKind,
    /// Re-dial / restart dead shards automatically every
    /// `recover_backoff_rounds`.
    pub auto_recover: bool,
    /// Rounds between automatic recovery attempts for a dead shard.
    pub recover_backoff_rounds: u64,
    /// Consecutive transport failures before a shard's circuit reads
    /// `Suspect`.
    pub suspect_after: u32,
    /// Consecutive transport failures before the circuit opens (`Dead`):
    /// the coordinator stops routing to the shard and only probes it.
    pub dead_after: u32,
    /// Rounds between probes of an open-circuit shard.
    pub probe_every_rounds: u64,
    /// Write-ahead coordinator journal (the fleetlog); `None` disables
    /// coordinator crash recovery.
    pub journal_path: Option<PathBuf>,
    /// Run `Router::check_books` every round (O(jobs); tests only).
    pub paranoid: bool,
}

impl FleetConfig {
    /// Defaults sized for in-process fleets.
    pub fn new(shards: usize, machines_per_shard: usize, cluster_cap_w: f64) -> FleetConfig {
        FleetConfig {
            shards,
            machines_per_shard,
            cluster_cap_w,
            shard_floor_w: 5.0,
            steal_threshold: 8,
            steal_batch: 32,
            rebalance_every: 4,
            queue_high_water: 48,
            submit_burst: 16,
            placement: PlacementKind::Ring,
            auto_recover: true,
            recover_backoff_rounds: 10,
            suspect_after: 1,
            dead_after: 3,
            probe_every_rounds: 5,
            journal_path: None,
            paranoid: false,
        }
    }

    /// The `FLT0xx` lint view of this config.
    pub fn lint(&self) -> corun_verify::Report {
        let mut report = corun_verify::lint_fleet(&corun_verify::FleetParams {
            shards: self.shards,
            machines_per_shard: self.machines_per_shard,
            cluster_cap_w: self.cluster_cap_w,
            shard_floor_w: self.shard_floor_w,
            steal_threshold: self.steal_threshold,
            rebalance_every: self.rebalance_every,
        });
        report.merge(corun_verify::lint_net_config(&corun_verify::NetParams {
            suspect_after: self.suspect_after,
            dead_after: self.dead_after,
            probe_every_rounds: self.probe_every_rounds,
        }));
        report
    }
}

/// Transport-health state of one shard's circuit breaker. Distinct from
/// worker liveness: a shard whose workers all died still answers RPC
/// (circuit `Live`, `alive == false`), while a partitioned shard may be
/// healthy but unreachable (circuit `Dead`, work fenced off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Circuit {
    /// Transport healthy.
    Live,
    /// Recent transport failures; still routed to, watched closely.
    Suspect,
    /// Circuit open: not routed to, probed every `probe_every_rounds`.
    Dead,
}

impl Circuit {
    /// Lowercase label for status output.
    pub fn as_str(self) -> &'static str {
        match self {
            Circuit::Live => "live",
            Circuit::Suspect => "suspect",
            Circuit::Dead => "dead",
        }
    }
}

/// Per-shard breaker bookkeeping.
#[derive(Debug, Clone, Copy)]
struct Breaker {
    state: Circuit,
    failures: u32,
    last_probe_round: u64,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: Circuit::Live,
            failures: 0,
            last_probe_round: 0,
        }
    }
}

/// Aggregated fleet metrics (`corun fleet` surfaces these).
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    /// Per-shard snapshots (last successful poll for dead shards).
    pub shards: Vec<ShardMetrics>,
    /// Per-shard liveness.
    pub alive: Vec<bool>,
    /// Per-shard caps from the last rebalance, watts.
    pub caps_w: Vec<f64>,
    /// Sum of the live caps, watts.
    pub cap_sum_w: f64,
    /// Largest cap sum ever handed out, watts (must stay within the
    /// cluster cap — the smoke test asserts it).
    pub max_cap_sum_w: f64,
    /// The cluster cap, watts.
    pub cluster_cap_w: f64,
    /// Jobs admitted to the fleet.
    pub jobs_total: usize,
    /// Jobs finished.
    pub jobs_done: usize,
    /// Jobs dead-lettered by their shard.
    pub jobs_dead_letter: usize,
    /// Jobs rejected (lint / infeasible).
    pub jobs_rejected: usize,
    /// Jobs waiting in coordinator backlogs.
    pub backlog: usize,
    /// Jobs accepted by a shard and not yet terminal.
    pub in_flight: usize,
    /// Jobs pinned to a shard awaiting keyed resolution after an
    /// indeterminate submit RPC.
    pub in_doubt: usize,
    /// Per-shard circuit-breaker states.
    pub circuits: Vec<Circuit>,
    /// Per-shard transport counters (zero for plain in-process shards).
    pub rpc: Vec<RpcSnapshot>,
    /// Coordinator journal recoveries this books has been through.
    pub fleet_recoveries: usize,
    /// Jobs moved by work stealing.
    pub steals: usize,
    /// Budget rebalance rounds executed.
    pub rebalances: usize,
    /// Jobs requeued after losing their shard incarnation.
    pub lost_requeues: usize,
    /// Pump rounds executed.
    pub rounds: u64,
    /// Placement policy name.
    pub placement: &'static str,
}

impl FleetMetrics {
    /// All admitted jobs accounted for and terminal.
    pub fn drained(&self) -> bool {
        self.jobs_done + self.jobs_dead_letter + self.jobs_rejected == self.jobs_total
    }
}

/// The coordinator.
pub struct Fleet {
    cfg: FleetConfig,
    shards: Vec<Box<dyn ShardBackend>>,
    router: Router,
    view: ShardView,
    /// Shard-local id -> fleet id, per shard.
    outstanding: Vec<BTreeMap<usize, FleetJobId>>,
    /// Last terminal count (`completed + dead_lettered`) folded per
    /// shard; for a shard that does not report `load`, a change triggers
    /// an outstanding sweep.
    folded_terminal: Vec<usize>,
    force_sweep: Vec<bool>,
    /// Per shard, the `load` its last submit or status reply this round
    /// carried: the next round's poll merges it instead of sending
    /// `metrics`.
    heard: Vec<Option<LoadSnapshot>>,
    /// Shards whose replies have carried `load` (protocol 3 daemons):
    /// they are swept every round they hold outstanding jobs.
    reports_load: Vec<bool>,
    metrics_cache: Vec<ShardMetrics>,
    caps_w: Vec<f64>,
    rounds: u64,
    steals_total: usize,
    rebalances: usize,
    lost_requeues: usize,
    max_cap_sum_w: f64,
    next_key: u64,
    breakers: Vec<Breaker>,
    /// Last-seen fenced-reply count per shard, for FLT008 surfacing.
    fenced_seen: Vec<u64>,
    /// Write-ahead journal; `None` without a journal path, or once it
    /// failed.
    log: Option<Journal>,
    /// Why the fleetlog failed (FLT009), once it has. From then on the
    /// coordinator admits no new work; `pump` still runs what it has.
    log_failed: Option<String>,
    /// Diagnostics raised while running: circuit opens (FLT007), fenced
    /// replies (FLT008), journal write failures (FLT009).
    chaos: Report,
    recoveries: usize,
}

/// The books a coordinator starts from: empty for [`Fleet::new`],
/// rebuilt from the fleetlog for [`Fleet::recover`].
struct Books {
    router: Router,
    /// Shard-local id -> fleet id, per shard.
    outstanding: Vec<BTreeMap<usize, FleetJobId>>,
    caps_w: Vec<f64>,
    log: Option<Journal>,
    /// Coordinator recoveries this fleetlog has been through, this one
    /// included.
    recoveries: usize,
    chaos: Report,
}

impl Fleet {
    /// Build a coordinator over `shards` backends. Fails on `FLT0xx`
    /// lint errors or a backend-count mismatch.
    pub fn new(cfg: FleetConfig, shards: Vec<Box<dyn ShardBackend>>) -> Result<Fleet, String> {
        Fleet::build(cfg, shards, |cfg| {
            let n = cfg.shards;
            let log = match &cfg.journal_path {
                Some(path) => {
                    let meta = FleetRecord::Meta {
                        version: FLEETLOG_FORMAT_VERSION,
                        shards: n,
                        cluster_cap_w: cfg.cluster_cap_w,
                    };
                    Some(Journal::create(path, &meta).map_err(|e| {
                        format!("cannot create fleet journal {}: {e}", path.display())
                    })?)
                }
                None => None,
            };
            Ok(Books {
                router: Router::new(n, cfg.placement.build(n)),
                outstanding: vec![BTreeMap::new(); n],
                caps_w: vec![0.0; n],
                log,
                recoveries: 0,
                chaos: Report::new(),
            })
        })
    }

    /// Rebuild a coordinator from its write-ahead journal after a crash
    /// (`corun fleet --recover`). The backends must address the same
    /// shards, in the same order, as the dead incarnation. Jobs the log
    /// proves submitted stay where they are; intent-without-confirm jobs
    /// come back pinned in doubt for keyed resolution; everything else
    /// is re-placed and resubmitted. Booked caps are restored so the
    /// cluster-cap invariant holds across the crash.
    pub fn recover(cfg: FleetConfig, shards: Vec<Box<dyn ShardBackend>>) -> Result<Fleet, String> {
        let path = cfg
            .journal_path
            .clone()
            .ok_or("fleet recovery requires a journal path")?;
        Fleet::build(cfg, shards, |cfg| {
            let scan = wal::scan::<FleetRecord>(&path, Code::Flt009);
            if scan.report.has_errors() {
                return Err(format!(
                    "fleet journal {} is unrecoverable:\n{}",
                    path.display(),
                    scan.report.render_human()
                ));
            }
            let rec = replay_fleetlog(&scan.records)?;
            if rec.shards != cfg.shards {
                return Err(format!(
                    "fleet journal books {} shards but config says {}",
                    rec.shards, cfg.shards
                ));
            }
            let n = cfg.shards;
            let jobs: Vec<FleetJob> = rec
                .jobs
                .iter()
                .map(|j| FleetJob {
                    key: j.key.clone(),
                    spec: j.spec.clone(),
                    loc: match j.loc {
                        // `Router::restore` re-places backlog jobs, so the
                        // stale shard index here is only a fallback.
                        RecoveredLoc::Pending => JobLoc::Backlog(0),
                        RecoveredLoc::InDoubt(s) => JobLoc::InDoubt(s),
                        RecoveredLoc::Submitted { shard, local_id } => {
                            JobLoc::Submitted { shard, local_id }
                        }
                        RecoveredLoc::Done(s) => JobLoc::Done(s),
                        RecoveredLoc::Dead(s) => JobLoc::DeadLetter(s),
                        RecoveredLoc::Rejected => JobLoc::Rejected,
                    },
                    submits: j.submits,
                    requeues: j.requeues,
                })
                .collect();
            let router = Router::restore(n, cfg.placement.build(n), jobs, &ShardView::fresh(n));
            let mut outstanding = vec![BTreeMap::new(); n];
            for (id, j) in rec.jobs.iter().enumerate() {
                if let RecoveredLoc::Submitted { shard, local_id } = j.loc {
                    outstanding[shard].insert(local_id, id);
                }
            }
            repair_tail(&path, &scan)
                .map_err(|e| format!("cannot repair fleet journal tail: {e}"))?;
            let mut log = Journal::open_append(&path, scan.records.len() as u64)
                .map_err(|e| format!("cannot reopen fleet journal: {e}"))?;
            log.append(&FleetRecord::Recovered)
                .map_err(|e| format!("cannot mark fleet journal recovered: {e}"))?;
            Ok(Books {
                router,
                outstanding,
                caps_w: rec.caps_w.unwrap_or_else(|| vec![0.0; n]),
                log: Some(log),
                recoveries: rec.recoveries + 1,
                chaos: scan.report,
            })
        })
    }

    /// The one constructor: check the backend count and the `FLT0xx`
    /// lints, then let `books` create or recover the fleetlog, and start
    /// the coordinator from what it returns.
    fn build(
        cfg: FleetConfig,
        shards: Vec<Box<dyn ShardBackend>>,
        books: impl FnOnce(&FleetConfig) -> Result<Books, String>,
    ) -> Result<Fleet, String> {
        if shards.len() != cfg.shards {
            return Err(format!(
                "config says {} shards but {} backends were provided",
                cfg.shards,
                shards.len()
            ));
        }
        let report = cfg.lint();
        if report.has_errors() {
            return Err(format!(
                "fleet config failed lint:\n{}",
                report.render_human()
            ));
        }
        let Books {
            router,
            outstanding,
            caps_w,
            log,
            recoveries,
            chaos,
        } = books(&cfg)?;
        let n = cfg.shards;
        let mut fleet = Fleet {
            next_key: router.jobs() as u64,
            router,
            view: ShardView::fresh(n),
            outstanding,
            folded_terminal: vec![0; n],
            // A recovered coordinator sweeps every shard: its books may
            // trail what shards finished while it was dead.
            force_sweep: vec![recoveries > 0; n],
            heard: vec![None; n],
            reports_load: vec![false; n],
            metrics_cache: vec![ShardMetrics::default(); n],
            max_cap_sum_w: caps_w.iter().sum(),
            caps_w,
            rounds: 0,
            steals_total: 0,
            rebalances: 0,
            lost_requeues: 0,
            breakers: vec![Breaker::new(); n],
            fenced_seen: vec![0; n],
            log,
            log_failed: None,
            chaos,
            recoveries,
            shards,
            cfg,
        };
        fleet.poll_shards(true);
        fleet.rebalance();
        fleet.log_commit();
        Ok(fleet)
    }

    /// Write one journal record; the next [`Fleet::log_commit`] makes it
    /// durable. A failed write stops admissions (see `log_failed`).
    fn log_rec(&mut self, rec: &FleetRecord) {
        let Some(log) = &mut self.log else { return };
        if let Err(e) = log.write(rec) {
            self.log_fail(format!("journal write failed: {e}"));
        }
    }

    /// The fleetlog's commit point: one fsync covers every record written
    /// since the last. It runs before each shard's submit batch (so its
    /// intents are durable first), before `submit_spec` returns ids, and
    /// once at the end of a round. A failed commit stops admissions and is
    /// never retried.
    fn log_commit(&mut self) {
        let Some(log) = &mut self.log else { return };
        if let Err(e) = log.commit() {
            self.log_fail(format!("journal commit failed: {e}"));
        }
    }

    fn log_fail(&mut self, reason: String) {
        self.log = None;
        self.chaos.push(
            Diagnostic::new(
                Code::Flt009,
                "fleet journal",
                format!("{reason}; the coordinator admits no new work"),
            )
            .with_severity(Severity::Error),
        );
        self.log_failed = Some(reason);
    }

    /// `Err` once the fleetlog has failed.
    fn log_healthy(&self) -> Result<(), String> {
        match &self.log_failed {
            Some(reason) => Err(format!(
                "fleet journal failed (FLT009): {reason}; no new work is admitted"
            )),
            None => Ok(()),
        }
    }

    /// Diagnostics raised while running (circuit opens, fenced replies,
    /// journal failures) plus any recovery-scan findings.
    pub fn chaos_report(&self) -> &Report {
        &self.chaos
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Admit a workload spec fragment to the fleet: each expanded job is
    /// placed independently by key. Returns the fleet job ids once their
    /// `admit` records are durable. After the fleetlog failed, every call
    /// is refused; a call whose own commit fails returns `Err`, though
    /// the jobs it placed still run.
    pub fn submit_spec(&mut self, text: &str) -> Result<Vec<FleetJobId>, String> {
        self.log_healthy()?;
        let (lines, report) = corun_verify::lint_spec_full(text);
        if report.has_errors() {
            return Err(format!("spec failed lint:\n{}", report.render_human()));
        }
        let mut ids = Vec::new();
        let mut placed = Ok(());
        'lines: for line in &lines {
            for _ in 0..line.count {
                let key = format!("{}x{}#{}", line.name, line.scale, self.next_key);
                self.next_key += 1;
                let spec = format!("{} x{}", line.name, line.scale);
                match self.router.admit(key.clone(), spec.clone(), &self.view) {
                    Ok(id) => {
                        self.log_rec(&FleetRecord::Admit { id, key, spec });
                        ids.push(id);
                    }
                    Err(_) => {
                        placed = Err("no live shard to place jobs on".to_string());
                        break 'lines;
                    }
                }
            }
        }
        self.log_commit();
        self.log_healthy()?;
        placed.map(|()| ids)
    }

    /// One coordinator round; returns the number of jobs newly observed
    /// terminal. Cheap when nothing changed — callers loop this with a
    /// short sleep (see [`Fleet::drain`]).
    pub fn pump(&mut self) -> usize {
        self.rounds += 1;
        let rebalance_due = self.cfg.rebalance_every > 0
            && self.rounds.is_multiple_of(self.cfg.rebalance_every as u64);
        // The budget partition weighs each shard's demand as this round
        // starts, not as its last submit left it: poll in full for it.
        self.poll_shards(rebalance_due);
        for s in 0..self.cfg.shards {
            if self.shards[s].take_incarnation_change() {
                // The shard restarted or recovered behind our back: its
                // local ids may now mean different jobs. Sweep everything
                // we think it holds against its (journal-recovered) books.
                self.force_sweep[s] = true;
            }
        }
        if self.cfg.auto_recover
            && self
                .rounds
                .is_multiple_of(self.cfg.recover_backoff_rounds.max(1))
            && (0..self.cfg.shards).any(|s| !self.view.alive[s])
        {
            let dead: Vec<usize> = (0..self.cfg.shards)
                .filter(|&s| !self.view.alive[s])
                .collect();
            for s in dead {
                let _ = self.recover_shard(s);
            }
        }
        if rebalance_due {
            self.rebalance();
        }
        self.evacuate_dead();
        let steals =
            self.router
                .auto_steal(&self.view, self.cfg.steal_threshold, self.cfg.steal_batch);
        self.steals_total += steals.iter().map(|s| s.moved).sum::<usize>();
        self.push_submissions();
        let folded = self.fold_completions();
        if self.cfg.paranoid {
            self.router.check_books();
        }
        debug_assert!(corun_core::respects_cluster_cap(
            &self.caps_w,
            self.cfg.cluster_cap_w
        ));
        // One commit for the round's confirms, completions and caps.
        self.log_commit();
        folded
    }

    /// Pump until every admitted job is terminal or `timeout_s` elapses.
    pub fn drain(&mut self, timeout_s: f64) -> Result<FleetMetrics, String> {
        // corun-lint: allow(wall-clock) — operator-facing drain deadline, an I/O edge.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs_f64(timeout_s);
        loop {
            let folded = self.pump();
            if self.router.terminal() == self.router.jobs() {
                self.refresh();
                return Ok(self.metrics());
            }
            // corun-lint: allow(wall-clock) — operator-facing drain deadline, an I/O edge.
            if std::time::Instant::now() >= deadline {
                let m = self.metrics();
                return Err(format!(
                    "fleet did not drain within {timeout_s}s: {}/{} terminal \
                     ({} backlog, {} in flight)",
                    m.jobs_done + m.jobs_dead_letter + m.jobs_rejected,
                    m.jobs_total,
                    m.backlog,
                    m.in_flight
                ));
            }
            if folded == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    }

    /// Poll every shard again. A round's fold can see completions newer
    /// than the round's own poll, so call this before reporting a drained
    /// fleet: the shard snapshots in [`Fleet::metrics`] are then no older
    /// than the books.
    pub fn refresh(&mut self) {
        self.poll_shards(true);
    }

    /// Aggregated metrics.
    pub fn metrics(&self) -> FleetMetrics {
        let mut done = 0;
        let mut dead = 0;
        let mut rejected = 0;
        let mut backlog = 0;
        let mut in_flight = 0;
        let mut in_doubt = 0;
        for id in 0..self.router.jobs() {
            match self.router.job(id).loc {
                JobLoc::Done(_) => done += 1,
                JobLoc::DeadLetter(_) => dead += 1,
                JobLoc::Rejected => rejected += 1,
                JobLoc::Backlog(_) | JobLoc::Submitting(_) => backlog += 1,
                JobLoc::Submitted { .. } => in_flight += 1,
                JobLoc::InDoubt(_) => {
                    in_flight += 1;
                    in_doubt += 1;
                }
            }
        }
        let cap_sum_w = self.caps_w.iter().sum();
        FleetMetrics {
            shards: self.metrics_cache.clone(),
            alive: self.view.alive.clone(),
            caps_w: self.caps_w.clone(),
            cap_sum_w,
            max_cap_sum_w: self.max_cap_sum_w,
            cluster_cap_w: self.cfg.cluster_cap_w,
            jobs_total: self.router.jobs(),
            jobs_done: done,
            jobs_dead_letter: dead,
            jobs_rejected: rejected,
            backlog,
            in_flight,
            in_doubt,
            circuits: self.breakers.iter().map(|b| b.state).collect(),
            rpc: self.shards.iter().map(|s| s.rpc_stats()).collect(),
            fleet_recoveries: self.recoveries,
            steals: self.steals_total,
            rebalances: self.rebalances,
            lost_requeues: self.lost_requeues,
            rounds: self.rounds,
            placement: match self.cfg.placement {
                PlacementKind::Ring => "ring",
                PlacementKind::LeastLoaded => "least-loaded",
            },
        }
    }

    /// The router's books (tests poke at job states through this).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Force one shard through recovery: restart/reconnect it, then
    /// immediately rebalance so it runs under a freshly partitioned cap.
    pub fn recover_shard(&mut self, shard: usize) -> Result<(), String> {
        // Partition as if the shard were already back so its restart cap
        // is its post-recovery budget, not a stale one. Lower the other
        // live shards *first*: the recovering shard's new share may be
        // larger than what its death left reserved, and budget must be
        // freed before it is re-spent.
        let caps = self.partitioned_caps(Some(shard));
        self.assert_caps(&caps);
        for (s, &cap) in caps.iter().enumerate() {
            if s != shard && self.view.alive[s] && cap > 0.0 && cap < self.caps_w[s] {
                if self.shards[s].set_cap(cap).is_ok() {
                    self.caps_w[s] = cap;
                } else {
                    self.view.alive[s] = false;
                }
            }
        }
        self.shards[shard].recover(caps[shard])?;
        self.view.alive[shard] = true;
        self.breakers[shard] = Breaker::new();
        self.force_sweep[shard] = true;
        self.apply_caps(caps);
        self.rebalances += 1;
        self.log_commit();
        Ok(())
    }

    /// Begin a graceful fleet-wide shutdown.
    pub fn begin_shutdown(&mut self) {
        for shard in &mut self.shards {
            shard.begin_shutdown();
        }
    }

    /// Finish shutdown (joins in-process shard workers).
    pub fn finish(&mut self) {
        for shard in &mut self.shards {
            shard.finish();
        }
        self.log_commit();
    }

    /// Partition the cluster cap across shards, treating `treat_alive`
    /// (a shard mid-recovery) as live. A dead shard keeps its last
    /// booked cap *reserved* — it may merely be unreachable and still
    /// running under that cap — so only the remainder is split across
    /// the live shards. The returned vector carries the booked figure
    /// for dead shards, so its sum is the fleet-wide hand-out.
    fn partitioned_caps(&self, treat_alive: Option<usize>) -> Vec<f64> {
        let live = |s: usize| self.view.alive[s] || treat_alive == Some(s);
        let reserved: f64 = (0..self.cfg.shards)
            .filter(|&s| !live(s))
            .map(|s| self.caps_w[s])
            .sum();
        let available = (self.cfg.cluster_cap_w - reserved).max(0.0);
        let demands: Vec<ShardDemand> = (0..self.cfg.shards)
            .map(|s| {
                if live(s) {
                    ShardDemand::Up {
                        watts: self.metrics_cache[s].demand_jobs() as f64,
                    }
                } else {
                    ShardDemand::Down
                }
            })
            .collect();
        let mut caps = partition_cluster_cap(available, &demands, self.cfg.shard_floor_w);
        for (s, cap) in caps.iter_mut().enumerate() {
            if !live(s) {
                *cap = self.caps_w[s];
            }
        }
        caps
    }

    fn assert_caps(&self, caps: &[f64]) {
        let report = corun_verify::lint_shard_caps(caps, self.cfg.cluster_cap_w);
        assert!(
            report.is_empty(),
            "budget partition broke the cluster-cap invariant:\n{}",
            report.render_human()
        );
    }

    /// Push `caps` to live shards (skipping unchanged ones) and record
    /// the hand-out.
    fn apply_caps(&mut self, caps: Vec<f64>) {
        for (s, &cap) in caps.iter().enumerate() {
            if !self.view.alive[s] || cap <= 0.0 {
                continue;
            }
            if (cap - self.caps_w[s]).abs() < 1e-9 {
                continue;
            }
            if self.shards[s].set_cap(cap).is_err() {
                // Push failed: the shard is down; it holds its *old* cap,
                // so keep that figure on the books (conservative: the sum
                // of booked caps still bounds what shards may draw).
                self.view.alive[s] = false;
            }
        }
        let mut changed = false;
        for (s, &cap) in caps.iter().enumerate() {
            if self.view.alive[s] && (cap - self.caps_w[s]).abs() > 1e-9 {
                self.caps_w[s] = cap;
                changed = true;
            }
        }
        let sum: f64 = self.caps_w.iter().sum();
        self.max_cap_sum_w = self.max_cap_sum_w.max(sum);
        if changed {
            self.log_rec(&FleetRecord::Caps {
                caps_w: self.caps_w.clone(),
            });
        }
    }

    fn rebalance(&mut self) {
        let caps = self.partitioned_caps(None);
        self.assert_caps(&caps);
        self.apply_caps(caps);
        self.rebalances += 1;
    }

    /// Refresh the view of every shard. In a round's poll (`full ==
    /// false`), a shard whose last submit or status reply carried `load`
    /// gets no `metrics` RPC: that reply was its heartbeat, and its
    /// counters are merged into the cached snapshot. An open circuit
    /// ignores such a reply and waits for its probe. A full poll
    /// (start-up, rebalance rounds, [`Fleet::refresh`]) asks every
    /// reachable shard for a whole snapshot.
    fn poll_shards(&mut self, full: bool) {
        for s in 0..self.cfg.shards {
            // An open circuit is only *probed* on its cadence; between
            // probes the shard stays fenced off without paying an RPC
            // timeout every round.
            let probe_due = self
                .rounds
                .saturating_sub(self.breakers[s].last_probe_round)
                >= self.cfg.probe_every_rounds.max(1);
            let heard = self.heard[s].take();
            let dead = self.breakers[s].state == Circuit::Dead;
            if let Some(load) = heard.filter(|_| !full && !dead) {
                self.metrics_cache[s].merge_load(&load);
                self.heartbeat(s);
            } else if dead && !probe_due {
                self.view.alive[s] = false;
            } else {
                self.breakers[s].last_probe_round = self.rounds;
                match self.shards[s].metrics() {
                    Ok(m) => {
                        self.metrics_cache[s] = m;
                        self.heartbeat(s);
                    }
                    Err(_) => {
                        self.view.alive[s] = false;
                        self.breaker_trip(s);
                    }
                }
            }
            self.surface_fenced(s);
            self.view.load[s] = self.router.backlog_depth(s)
                + if self.view.alive[s] {
                    self.metrics_cache[s].queue_depth
                } else {
                    0
                };
        }
    }

    /// A reply from `s` arrived: its transport is healthy — even if every
    /// worker died, that is the *shard's* problem (journal recovery
    /// handles it), not the network's.
    fn heartbeat(&mut self, s: usize) {
        self.breakers[s].failures = 0;
        self.breakers[s].state = Circuit::Live;
        self.view.alive[s] = self.metrics_cache[s].is_alive();
    }

    /// Record one transport failure against `s`'s breaker, opening the
    /// circuit (with an FLT007 diagnostic) at the configured threshold.
    fn breaker_trip(&mut self, s: usize) {
        let b = &mut self.breakers[s];
        b.failures = b.failures.saturating_add(1);
        if b.failures >= self.cfg.dead_after {
            if b.state != Circuit::Dead {
                b.state = Circuit::Dead;
                self.chaos.push(Diagnostic::new(
                    Code::Flt007,
                    format!("shard {s}"),
                    format!(
                        "circuit opened after {} consecutive transport failures; \
                         probing every {} rounds",
                        b.failures, self.cfg.probe_every_rounds
                    ),
                ));
            }
        } else if b.failures >= self.cfg.suspect_after {
            b.state = Circuit::Suspect;
        }
    }

    /// Raise FLT008 when a shard's transport rejected stale-epoch
    /// replies since the last poll.
    fn surface_fenced(&mut self, s: usize) {
        let fenced = self.shards[s].fenced_replies();
        if fenced > self.fenced_seen[s] {
            self.chaos.push(Diagnostic::new(
                Code::Flt008,
                format!("shard {s}"),
                format!(
                    "{} stale-epoch repl{} rejected by fencing",
                    fenced - self.fenced_seen[s],
                    if fenced - self.fenced_seen[s] == 1 {
                        "y"
                    } else {
                        "ies"
                    }
                ),
            ));
            self.fenced_seen[s] = fenced;
        }
    }

    /// Move backlog away from dead shards while anything else is live.
    fn evacuate_dead(&mut self) {
        if !self.view.alive.iter().any(|&a| a) {
            return;
        }
        for s in 0..self.cfg.shards {
            if !self.view.alive[s] && self.router.backlog_depth(s) > 0 {
                self.router.evacuate_backlog(s, &self.view);
            }
        }
    }

    /// Send each live shard at most one keyed `submit_batch` this round:
    /// its in-doubt jobs first, then up to `min(submit_burst,
    /// queue_high_water - queue_depth)` jobs from its backlog. The fresh
    /// jobs' intents are committed once, before the RPC.
    ///
    /// Keyed resubmission settles an in-doubt job: a dedup hit proves the
    /// original RPC landed (the shard answers with the existing id); a
    /// fresh accept proves it did not and admits the one and only copy.
    /// Either way exactly one copy exists, which is the no-double-dispatch
    /// invariant. An in-doubt job answered any other way stays in doubt.
    fn push_submissions(&mut self) {
        for s in 0..self.cfg.shards {
            if !self.view.alive[s] {
                continue;
            }
            let doubt = self.router.in_doubt(s);
            let room = self.cfg.submit_burst.min(
                self.cfg
                    .queue_high_water
                    .saturating_sub(self.metrics_cache[s].queue_depth),
            );
            let fresh: Vec<FleetJobId> = std::iter::from_fn(|| self.router.begin_submit(s))
                .take(room)
                .collect();
            if doubt.is_empty() && fresh.is_empty() {
                continue;
            }
            // Intents are committed *before* the RPC: if the coordinator
            // dies in between, recovery sees intent without confirm and
            // resolves the job against this shard instead of guessing.
            // The commit also covers the records written since the last.
            for &id in &fresh {
                self.log_rec(&FleetRecord::Intent { id, shard: s });
            }
            self.log_commit();
            let items: Vec<(String, String)> = doubt
                .iter()
                .chain(&fresh)
                .map(|&id| {
                    let job = self.router.job(id);
                    (job.key.clone(), job.spec.clone())
                })
                .collect();
            let mut outcomes = self.shards[s].submit_batch(&items).into_iter();
            let load = self.note_load(s);
            let mut down = false;
            let mut in_doubt = false;
            for &id in &doubt {
                match outcomes.next() {
                    Some(SubmitOutcome::Accepted(local_ids)) => {
                        let local_id = single_id(&local_ids);
                        self.router.resolve_confirm(id, local_id);
                        self.booked(id, s, local_id);
                        // The job may already be terminal on the shard
                        // (it ran while we were partitioned): sweep.
                        self.force_sweep[s] = true;
                    }
                    Some(SubmitOutcome::Refused(_)) => {
                        // The shard's dedup would have answered with the
                        // original ids had the first RPC landed, so it
                        // cannot have: terminal rejection.
                        self.router.resolve_reject(id);
                        self.log_rec(&FleetRecord::Rejected { id });
                    }
                    Some(SubmitOutcome::Down(_)) => down = true,
                    Some(SubmitOutcome::Indeterminate(_)) => in_doubt = true,
                    Some(SubmitOutcome::Backpressure { .. }) | None => {}
                }
            }
            let mut unplaced = Vec::new();
            for &id in &fresh {
                match outcomes.next() {
                    Some(SubmitOutcome::Accepted(local_ids)) => {
                        let local_id = single_id(&local_ids);
                        self.router.confirm(id, local_id);
                        self.booked(id, s, local_id);
                    }
                    Some(SubmitOutcome::Refused(_)) => {
                        self.router.reject(id);
                        self.log_rec(&FleetRecord::Rejected { id });
                    }
                    Some(SubmitOutcome::Indeterminate(_)) => {
                        // The request may have landed. Pin the job to
                        // this shard; the next round's batch settles it
                        // by keyed resubmission.
                        self.router.mark_in_doubt(id);
                        in_doubt = true;
                    }
                    Some(SubmitOutcome::Down(_)) => {
                        // Certainly undelivered: safe to re-place.
                        unplaced.push(id);
                        down = true;
                    }
                    // Backpressure, or never attempted.
                    Some(SubmitOutcome::Backpressure { .. }) | None => unplaced.push(id),
                }
            }
            // `Router::abort` pushes to the front of the backlog, so abort
            // in reverse to keep the backlog in FIFO order.
            for &id in unplaced.iter().rev() {
                self.router.abort(id);
                self.log_rec(&FleetRecord::Abort { id });
            }
            if down {
                self.view.alive[s] = false;
            }
            if down || in_doubt {
                self.breaker_trip(s);
            } else {
                self.heard[s] = load;
            }
        }
    }

    /// Take the `load` the call just made to `s` returned, noting that the
    /// shard reports one.
    fn note_load(&mut self, s: usize) -> Option<LoadSnapshot> {
        let load = self.shards[s].take_load();
        self.reports_load[s] |= load.is_some();
        load
    }

    /// Book a job the shard accepted under `local_id`.
    fn booked(&mut self, id: FleetJobId, shard: usize, local_id: usize) {
        self.outstanding[shard].insert(local_id, id);
        self.log_rec(&FleetRecord::Confirm {
            id,
            shard,
            local_id,
        });
    }

    /// Sweep shards and fold job fates into the router. A shard that
    /// reports `load` is swept every round it holds outstanding jobs, so
    /// a job that finishes right after its submit is seen this round.
    /// Any other shard is swept only when the terminal count of this
    /// round's `metrics` poll moved. Returns how many jobs left the
    /// outstanding set.
    fn fold_completions(&mut self) -> usize {
        let mut folded = 0;
        for s in 0..self.cfg.shards {
            if !self.view.alive[s] {
                continue;
            }
            let terminal = self.metrics_cache[s].completed + self.metrics_cache[s].dead_lettered;
            let due = if self.reports_load[s] {
                !self.outstanding[s].is_empty()
            } else {
                terminal != self.folded_terminal[s]
            };
            if !due && !self.force_sweep[s] {
                continue;
            }
            self.force_sweep[s] = false;
            let locals: Vec<usize> = self.outstanding[s].keys().copied().collect();
            let phases = if locals.is_empty() {
                Vec::new()
            } else {
                match self.shards[s].job_phases(&locals) {
                    Ok(phases) => {
                        debug_assert_eq!(phases.len(), locals.len(), "one phase per job");
                        // Newer than the submit reply's.
                        self.heard[s] = self.note_load(s);
                        phases
                    }
                    Err(_) => {
                        self.heard[s] = None;
                        self.view.alive[s] = false;
                        self.breaker_trip(s);
                        // Jobs may already be terminal, and the count will
                        // not move for them: sweep again next round instead
                        // of recording it.
                        self.force_sweep[s] = true;
                        continue;
                    }
                }
            };
            for (local, phase) in locals.into_iter().zip(phases) {
                let id = self.outstanding[s][&local];
                match phase {
                    JobPhase::Pending => continue,
                    JobPhase::Done => {
                        self.router.complete(id, s);
                        self.log_rec(&FleetRecord::Done { id });
                    }
                    JobPhase::DeadLetter => {
                        self.router.dead_letter(id, s);
                        self.log_rec(&FleetRecord::Dead { id });
                    }
                    JobPhase::Rejected => {
                        // A shard cannot reject after accepting — but a
                        // recovered journal may surface it; count it as
                        // dead-lettered so the job is terminal, not lost.
                        debug_assert!(false, "job {id} rejected after acceptance");
                        self.router.dead_letter(id, s);
                        self.log_rec(&FleetRecord::Dead { id });
                    }
                    JobPhase::Unknown => {
                        // This incarnation never heard of the id: the old
                        // one died without a journal. Route it again.
                        self.router.requeue_lost(id, &self.view);
                        self.log_rec(&FleetRecord::Requeue { id });
                        self.lost_requeues += 1;
                    }
                }
                self.outstanding[s].remove(&local);
                folded += 1;
            }
            self.folded_terminal[s] = terminal;
        }
        folded
    }
}

/// The one local id of an accepted keyed submit.
fn single_id(local_ids: &[usize]) -> usize {
    assert_eq!(
        local_ids.len(),
        1,
        "keyed submits are single-job, got {} ids",
        local_ids.len()
    );
    local_ids[0]
}
