//! The coordinator's RPC budget. Each round sends a shard at most one
//! keyed `submit` batch and one multi-id `status` call, so submit and
//! status traffic grows with pump rounds, not with jobs. Those replies
//! carry the shard's `load`, so a shard that answered one gets no
//! `metrics` poll the next round unless that round rebalances the power
//! budget. A batch whose reply is lost puts every
//! one of its jobs in doubt, and the next round's one keyed batch settles
//! them all. A daemon that sends no `load` (protocol 2) is still polled
//! and swept by its terminal count.

use corun_core::WallClock;
use corun_fleet::net::LocalRaw;
use corun_fleet::{Fleet, FleetConfig, NetConfig, NetError, RawTransport, RpcShard, ShardBackend};
use corun_serve::{Json, Service, ServiceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Submit, status and metrics request lines one shard was sent.
#[derive(Default)]
struct Tally {
    submits: AtomicUsize,
    statuses: AtomicUsize,
    metrics: AtomicUsize,
}

impl Tally {
    /// `[submits, statuses, metrics]` so far.
    fn counts(&self) -> [usize; 3] {
        [&self.submits, &self.statuses, &self.metrics].map(|n| n.load(Ordering::SeqCst))
    }
}

/// What the counting transports do besides counting.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Pass every reply through.
    Clean,
    /// Shard 0 cuts short every reply to the first keyed batch it
    /// carries — on each retry too, so that batch's RPC fails after
    /// delivery.
    CutFirstBatch,
    /// Every shard drops `load` from its replies, as a protocol-2 daemon
    /// would.
    Protocol2,
}

/// An in-process transport that counts `submit`, `status` and `metrics`
/// lines and can cut or strip replies (see [`Mode`]).
struct Counting {
    inner: LocalRaw,
    tally: Arc<Tally>,
    cut_first_batch: bool,
    strip_load: bool,
    cut: Option<String>,
}

impl RawTransport for Counting {
    fn exchange(&mut self, line: &str) -> Result<String, NetError> {
        if line.contains(r#""op":"submit""#) {
            self.tally.submits.fetch_add(1, Ordering::SeqCst);
        }
        if line.contains(r#""op":"status""#) {
            self.tally.statuses.fetch_add(1, Ordering::SeqCst);
        }
        if line.contains(r#""op":"metrics""#) {
            self.tally.metrics.fetch_add(1, Ordering::SeqCst);
        }
        let reply = self.inner.exchange(line)?;
        let is_batch = line.contains(r#""items":"#);
        if self.cut_first_batch && is_batch && self.cut.as_deref().is_none_or(|c| c == line) {
            self.cut = Some(line.to_string());
            return Ok(reply[..reply.len() / 2].to_string());
        }
        if self.strip_load {
            let mut json = Json::parse(&reply).expect("the daemon replies with JSON");
            if let Json::Obj(fields) = &mut json {
                fields.retain(|(k, _)| k != "load");
            }
            return Ok(json.render());
        }
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    fn peer(&self) -> String {
        "counting".into()
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}

fn start_services(shards: usize) -> Vec<Arc<Service>> {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 64;
    cfg.machines = 2;
    cfg.cache_dir =
        Some(std::env::temp_dir().join(format!("corun-rpc-budget-cache-{}", std::process::id())));
    (0..shards)
        .map(|_| Arc::new(Service::start(cfg.clone())))
        .collect()
}

/// A fleet over counting transports in `mode`.
fn counted_fleet(services: &[Arc<Service>], mode: Mode) -> (Fleet, Vec<Arc<Tally>>) {
    let tallies: Vec<Arc<Tally>> = services.iter().map(|_| Arc::default()).collect();
    let backends = services
        .iter()
        .zip(&tallies)
        .enumerate()
        .map(|(s, (svc, tally))| {
            let raw = Counting {
                inner: LocalRaw::new(Arc::clone(svc)),
                tally: Arc::clone(tally),
                cut_first_batch: mode == Mode::CutFirstBatch && s == 0,
                strip_load: mode == Mode::Protocol2,
                cut: None,
            };
            Box::new(RpcShard::over(
                raw,
                NetConfig::default(),
                Arc::new(WallClock::new()),
            )) as Box<dyn ShardBackend>
        })
        .collect();
    let mut cfg = FleetConfig::new(services.len(), 2, 40.0);
    cfg.shard_floor_w = 15.0;
    cfg.paranoid = true;
    (Fleet::new(cfg, backends).expect("fleet"), tallies)
}

/// Jobs the shards finished equal the jobs the fleet folded: none lost,
/// none run twice.
fn assert_exactly_once(fleet: &Fleet, services: &[Arc<Service>], jobs: usize) {
    let m = fleet.metrics();
    assert!(m.drained(), "{} of {jobs} terminal", m.jobs_done);
    assert_eq!(m.jobs_done + m.jobs_dead_letter, jobs);
    let terminal: usize = services
        .iter()
        .map(|s| {
            let sm = s.metrics();
            sm.completed + sm.dead_lettered
        })
        .sum();
    assert_eq!(terminal, m.jobs_done + m.jobs_dead_letter);
    for id in 0..fleet.router().jobs() {
        assert_eq!(fleet.router().job(id).submits, 1, "job {id}");
    }
}

/// Pump until every job is terminal, handing `on_round` each shard's
/// `[submits, statuses, metrics]` sent during the round. Returns the
/// rounds pumped. Idle rounds sleep 2 ms, so the round limit is about
/// two minutes.
fn pump_to_drain(
    fleet: &mut Fleet,
    tallies: &[Arc<Tally>],
    mut on_round: impl FnMut(u64, &[[usize; 3]]),
) -> u64 {
    const ROUND_LIMIT: u64 = 60_000;
    let mut before: Vec<[usize; 3]> = tallies.iter().map(|t| t.counts()).collect();
    let mut rounds = 0;
    while fleet.router().terminal() < fleet.router().jobs() {
        assert!(rounds < ROUND_LIMIT, "the fleet did not drain");
        let folded = fleet.pump();
        rounds += 1;
        let sent: Vec<[usize; 3]> = tallies
            .iter()
            .zip(&mut before)
            .map(|(t, before)| {
                let now = t.counts();
                let sent = [0, 1, 2].map(|i| now[i] - before[i]);
                *before = now;
                sent
            })
            .collect();
        on_round(rounds, &sent);
        if folded == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    rounds
}

fn shutdown(mut fleet: Fleet, services: &[Arc<Service>]) {
    fleet.begin_shutdown();
    fleet.finish();
    for svc in services {
        svc.shutdown();
    }
}

#[test]
fn submit_and_status_calls_grow_with_rounds_not_jobs() {
    const JOBS: usize = 400;
    const BATCH: usize = 50;
    let services = start_services(2);
    let (mut fleet, tallies) = counted_fleet(&services, Mode::Clean);
    for _ in 0..JOBS / BATCH {
        fleet
            .submit_spec(&format!("srad x0.05 *{BATCH}\n"))
            .expect("submit");
        fleet.pump();
    }
    fleet.drain(120.0).expect("drain");
    assert_exactly_once(&fleet, &services, JOBS);
    let submits: usize = tallies
        .iter()
        .map(|t| t.submits.load(Ordering::SeqCst))
        .sum();
    let statuses: usize = tallies
        .iter()
        .map(|t| t.statuses.load(Ordering::SeqCst))
        .sum();
    #[allow(clippy::cast_precision_loss)]
    let per_job = (submits + statuses) as f64 / JOBS as f64;
    assert!(
        per_job < 0.5,
        "{submits} submit + {statuses} status calls for {JOBS} jobs ({per_job:.2} per job)"
    );
    shutdown(fleet, &services);
}

#[test]
fn a_lost_batch_reply_is_settled_by_one_keyed_batch() {
    const JOBS: usize = 40;
    let services = start_services(2);
    let (mut fleet, tallies) = counted_fleet(&services, Mode::CutFirstBatch);
    fleet
        .submit_spec(&format!("srad x0.05 *{JOBS}\n"))
        .expect("submit");
    // Round 1: every attempt at shard 0's batch loses its reply after
    // the shard admitted the jobs.
    fleet.pump();
    let in_doubt = fleet.metrics().in_doubt;
    assert!(
        in_doubt > 1,
        "the lost batch left {in_doubt} job(s) in doubt"
    );
    assert_eq!(
        in_doubt,
        services[0].job_count(),
        "every job of the lost batch is in doubt"
    );
    // Round 2: one keyed batch settles them all by dedup.
    let before = tallies[0].submits.load(Ordering::SeqCst);
    fleet.pump();
    assert_eq!(fleet.metrics().in_doubt, 0);
    assert_eq!(tallies[0].submits.load(Ordering::SeqCst), before + 1);
    fleet.drain(120.0).expect("drain");
    assert_exactly_once(&fleet, &services, JOBS);
    shutdown(fleet, &services);
}

#[test]
fn a_shard_that_answered_with_load_gets_no_metrics_next_round() {
    const JOBS: usize = 200;
    let services = start_services(2);
    let (mut fleet, tallies) = counted_fleet(&services, Mode::Clean);
    fleet
        .submit_spec(&format!("srad x0.05 *{JOBS}\n"))
        .expect("submit");
    let rebalance_every = fleet.config().rebalance_every as u64;
    // Fault-free, every submit and status reply carries `load`.
    let mut answered = [false; 2];
    let mut heartbeats = 0;
    pump_to_drain(&mut fleet, &tallies, |round, sent| {
        let rebalances = round.is_multiple_of(rebalance_every);
        for (s, [submits, statuses, metrics]) in sent.iter().copied().enumerate() {
            if rebalances {
                // The budget partition polls every shard in full.
                assert_eq!(metrics, 1, "shard {s} in rebalance round {round}");
            } else if answered[s] {
                assert_eq!(
                    metrics, 0,
                    "shard {s} was polled in round {round} after answering with load"
                );
                heartbeats += 1;
            }
            // Its accepted jobs are outstanding, so the same round sweeps.
            assert!(
                submits == 0 || statuses == 1,
                "shard {s} took a batch in round {round} without a sweep"
            );
            answered[s] = submits + statuses > 0;
        }
    });
    assert!(
        heartbeats > 0,
        "no round followed a reply that carried load"
    );
    assert_exactly_once(&fleet, &services, JOBS);
    shutdown(fleet, &services);
}

#[test]
fn a_daemon_without_load_drains_through_metrics_polls_and_the_count_gate() {
    const JOBS: usize = 100;
    let services = start_services(2);
    let (mut fleet, tallies) = counted_fleet(&services, Mode::Protocol2);
    fleet
        .submit_spec(&format!("srad x0.05 *{JOBS}\n"))
        .expect("submit");
    let rounds = pump_to_drain(&mut fleet, &tallies, |round, sent| {
        for (s, [_, _, metrics]) in sent.iter().copied().enumerate() {
            assert_eq!(metrics, 1, "shard {s} went unpolled in round {round}");
        }
    });
    assert_exactly_once(&fleet, &services, JOBS);
    for t in &tallies {
        // The start-up poll, then one per round.
        assert_eq!(t.counts()[2], 1 + rounds as usize);
    }
    shutdown(fleet, &services);
}
