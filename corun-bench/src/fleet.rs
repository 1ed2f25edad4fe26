//! `fleet-paced` and `fleet-netchaos`: a `corun fleet` coordinator over
//! two journaled daemons behind real TCP sockets, driven by one
//! coordinator thread.
//!
//! Traced runs put [`TimedShard`] around every shard backend and
//! [`TimedRaw`] directly over every TCP transport, so the pump's time
//! splits into shard operations, time on the wire, and what is left:
//! the coordinator's own work (router, steal, rebalance, fleetlog fsync)
//! and the RPC client's codec and backoff sleeps.

use crate::run::{Env, Run};
use crate::serve::service_config;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{job_specs, ms};
use corun_core::WallClock;
use corun_fleet::net::{FaultyRaw, TcpRaw};
use corun_fleet::{
    Fleet, FleetConfig, FleetJobId, FleetMetrics, JobLoc, JobPhase, NetConfig, NetError,
    NetFaultPlan, RawTransport, RpcShard, RpcSnapshot, ShardBackend, ShardMetrics, SubmitOutcome,
};
use corun_serve::{MetricsSnapshot, Server, Service};
use std::io::BufRead;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const MACHINES_PER_SHARD: usize = 2;
const CLUSTER_CAP_W: f64 = 60.0;
/// The ci.sh floor: at the default 5 W a shard can be squeezed below
/// what a job needs and clean runs reject work.
const SHARD_FLOOR_W: f64 = 15.0;
/// Open-loop arrival rate. Shard journals grow with history, and so does
/// the cost of each job: at 1,000 jobs/s the backlog grows through a
/// 12 s run (the p75 turnaround of each second climbs from 2 to over
/// 20 ms), while at 500 jobs/s it stays flat and stalls show up as tail
/// latency.
const PACED_RATE: f64 = 500.0;
const SMOKE_PACED_SECONDS: f64 = 0.2;
/// Large enough to reach the drain-tail behaviour of long runs.
const NETCHAOS_JOBS: usize = 2000;
const SMOKE_NETCHAOS_JOBS: usize = 50;
const NETCHAOS_BATCH: usize = 50;
/// The fault plan is part of the workload, not of its inputs: runs with
/// different `--seed`s face the same faults, the first operations of the
/// coordinator's start-up included, and differ only in their job mix.
const NETCHAOS_PLAN: &str = "@netchaos seed=9 drop=0.05 dup=0.05 truncate=0.03";
/// Sleep cap when a pump folded nothing, as in `Fleet::drain`.
const IDLE: Duration = Duration::from_millis(2);
/// A run that has not drained by then counts its stragglers as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Times every [`ShardBackend`] operation the coordinator makes.
struct TimedShard<B> {
    inner: B,
    tracer: Tracer,
}

impl<B: ShardBackend> ShardBackend for TimedShard<B> {
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
        self.tracer
            .span("fleet.shard.submit", || self.inner.submit(key, spec))
    }

    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
        let phase = self
            .tracer
            .span("fleet.shard.job_phase", || self.inner.job_phase(local_id));
        if matches!(phase, Ok(p) if p != JobPhase::Pending) {
            self.tracer.count("fleet.job_phase.useful", 1.0);
        }
        phase
    }

    fn metrics(&mut self) -> Result<ShardMetrics, String> {
        self.tracer
            .span("fleet.shard.metrics", || self.inner.metrics())
    }

    fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        self.tracer
            .span("fleet.shard.set_cap", || self.inner.set_cap(cap_w))
    }

    fn recover(&mut self, cap_w: f64) -> Result<(), String> {
        self.tracer
            .span("fleet.shard.recover", || self.inner.recover(cap_w))
    }

    fn begin_shutdown(&mut self) {
        self.inner.begin_shutdown();
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn take_incarnation_change(&mut self) -> bool {
        self.inner.take_incarnation_change()
    }

    fn rpc_stats(&self) -> RpcSnapshot {
        self.inner.rpc_stats()
    }
}

/// Times every line exchange and reconnect on the real socket.
struct TimedRaw<T> {
    inner: T,
    tracer: Tracer,
}

impl<T: RawTransport> RawTransport for TimedRaw<T> {
    fn exchange(&mut self, line: &str) -> Result<String, NetError> {
        self.tracer
            .span("fleet.net.exchange", || self.inner.exchange(line))
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.tracer
            .span("fleet.net.reconnect", || self.inner.reconnect())
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Shard operations the coordinator makes, summed for the derived spans.
const SHARD_OPS: [&str; 5] = [
    "fleet.shard.submit",
    "fleet.shard.job_phase",
    "fleet.shard.metrics",
    "fleet.shard.set_cap",
    "fleet.shard.recover",
];

struct Rig {
    servers: Vec<Server>,
    fleet: Fleet,
}

impl Rig {
    /// Two journaled daemons on ephemeral ports, the transport stack
    /// `corun fleet --addrs` builds (optionally under a netchaos plan),
    /// and a coordinator with its fleetlog, all from a cold cache in
    /// `dir`.
    fn start(dir: &Path, plan: Option<&NetFaultPlan>, tracer: &Tracer) -> Rig {
        let servers: Vec<Server> = (0..SHARDS)
            .map(|s| {
                let mut cfg = service_config(dir, MACHINES_PER_SHARD, &format!("shard-{s}.jsonl"));
                cfg.worker_threads = 1;
                Server::bind(Service::start(cfg), "127.0.0.1:0").expect("bind a shard daemon")
            })
            .collect();
        let backends = servers
            .iter()
            .enumerate()
            .map(|(s, server)| backend(&server.addr().to_string(), plan, s, tracer))
            .collect();
        let mut cfg = FleetConfig::new(SHARDS, MACHINES_PER_SHARD, CLUSTER_CAP_W);
        cfg.shard_floor_w = SHARD_FLOOR_W;
        cfg.journal_path = Some(dir.join("fleet.jsonl"));
        let fleet = Fleet::new(cfg, backends).expect("start the coordinator");
        Rig { servers, fleet }
    }

    /// [`Env::cold_start`] over [`Rig::start`]; clears what the starts
    /// traced.
    fn cold_start(env: &Env, plan: Option<&NetFaultPlan>, run: &mut Run) -> Rig {
        let (rig, setup_s) = env.cold_start(
            |dir| Rig::start(dir, plan, &env.tracer),
            |rig| {
                rig.stop();
            },
        );
        run.setup_s = setup_s;
        env.tracer.take();
        rig
    }

    fn pump(&mut self, tracer: &Tracer) -> usize {
        tracer.span("fleet.pump", || self.fleet.pump())
    }

    /// Stop the coordinator, then the daemons; returns their metrics.
    fn stop(mut self) -> Vec<MetricsSnapshot> {
        self.fleet.begin_shutdown();
        self.fleet.finish();
        // Closing the coordinator's sockets lets the daemons' connection
        // threads exit before the daemons shut down.
        drop(self.fleet);
        self.servers
            .iter()
            .map(|server| {
                let m = server.service().metrics();
                server.service().shutdown();
                m
            })
            .collect()
    }

    /// Stop the system, then check the books and fill the run's totals.
    fn finish(self, env: &Env, run: &mut Run) {
        let m = self.fleet.metrics();
        if env.tracer.enabled() {
            // Before shutdown appends to the journals this reads.
            layers(env, &m, run);
        }
        for sm in self.stop() {
            run.cap_violations += sm.cap_violations;
            run.power_samples += sm.cap_samples;
            run.sim_s += sm.sim_now_s.iter().sum::<f64>();
        }

        run.done = m.jobs_done;
        let terminal = m.jobs_done + m.jobs_dead_letter + m.jobs_rejected;
        if m.jobs_total != run.attempted || terminal != m.jobs_total || m.in_flight + m.backlog > 0
        {
            run.violations.push(format!(
                "books do not balance: {} done + {} dead + {} rejected of {} admitted, \
                 {} expected ({} in flight, {} backlog)",
                m.jobs_done,
                m.jobs_dead_letter,
                m.jobs_rejected,
                m.jobs_total,
                run.attempted,
                m.in_flight,
                m.backlog
            ));
        }
        if m.max_cap_sum_w > m.cluster_cap_w + 1e-9 {
            run.violations.push(format!(
                "shard caps summed to {} W, above the {} W cluster cap",
                m.max_cap_sum_w, m.cluster_cap_w
            ));
        }
    }
}

fn backend(
    addr: &str,
    plan: Option<&NetFaultPlan>,
    shard: usize,
    tracer: &Tracer,
) -> Box<dyn ShardBackend> {
    let net = NetConfig::default();
    let mut tcp = TcpRaw::new(addr, net.io_timeout_s);
    tcp.reconnect().expect("dial a shard daemon");
    let timed = |inner| TimedRaw {
        inner,
        tracer: tracer.clone(),
    };
    match (plan, tracer.enabled()) {
        (None, false) => rpc(tcp, tracer),
        (None, true) => rpc(timed(tcp), tracer),
        (Some(p), false) => rpc(FaultyRaw::new(tcp, p.clone(), shard), tracer),
        (Some(p), true) => rpc(FaultyRaw::new(timed(tcp), p.clone(), shard), tracer),
    }
}

fn rpc<T: RawTransport + 'static>(raw: T, tracer: &Tracer) -> Box<dyn ShardBackend> {
    let shard = RpcShard::over(raw, NetConfig::default(), Arc::new(WallClock::new()));
    if tracer.enabled() {
        Box::new(TimedShard {
            inner: shard,
            tracer: tracer.clone(),
        })
    } else {
        Box::new(shard)
    }
}

fn is_terminal(loc: &JobLoc) -> bool {
    matches!(
        loc,
        JobLoc::Done(_) | JobLoc::DeadLetter(_) | JobLoc::Rejected
    )
}

/// Jobs admitted but not yet seen terminal, each with the instant its
/// latency is measured from.
struct Pending {
    jobs: Vec<(FleetJobId, Instant)>,
    last_terminal: Option<Instant>,
}

impl Pending {
    fn new() -> Pending {
        Pending {
            jobs: Vec::new(),
            last_terminal: None,
        }
    }

    /// Move every job the router now shows terminal into `latencies_ms`.
    fn harvest(&mut self, fleet: &Fleet, latencies_ms: &mut Vec<f64>) {
        let now = Instant::now();
        let before = self.jobs.len();
        self.jobs.retain(|&(id, t0)| {
            let done = is_terminal(&fleet.router().job(id).loc);
            if done {
                latencies_ms.push(ms(now - t0));
            }
            !done
        });
        if self.jobs.len() < before {
            self.last_terminal = Some(now);
        }
    }
}

/// Open loop: one job due every 1/`PACED_RATE` s for `--seconds`; the
/// thread submits whatever is due, pumps in between, and sleeps at most
/// [`IDLE`] when a pump folded nothing. Latency runs from a job's due
/// time until a pump first shows it terminal.
pub fn paced(env: &Env) -> Run {
    let seconds = if env.smoke {
        SMOKE_PACED_SECONDS
    } else {
        env.seconds
    };
    let n = (PACED_RATE * seconds).round() as usize;
    let specs = job_specs(env.seed, n);
    let mut run = Run {
        attempted: n,
        ..Run::default()
    };
    let mut rig = Rig::cold_start(env, None, &mut run);

    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / PACED_RATE);
    let mut pending = Pending::new();
    let mut submit_ms = Vec::with_capacity(n);
    let mut next = 0;
    loop {
        while next < n && due(next) <= Instant::now() {
            let t = Instant::now();
            run.gen_lag_ms.push(ms(t - due(next)));
            let ids = env
                .tracer
                .span("fleet.submit_spec", || rig.fleet.submit_spec(specs[next]))
                .expect("the fleet admits a linted spec");
            submit_ms.push(ms(Instant::now() - due(next)));
            pending
                .jobs
                .extend(ids.into_iter().map(|id| (id, due(next))));
            next += 1;
        }
        let folded = rig.pump(&env.tracer);
        pending.harvest(&rig.fleet, &mut run.latencies_ms);
        if next == n && pending.jobs.is_empty() {
            break;
        }
        if start.elapsed() > DRAIN_LIMIT {
            run.violations
                .push(format!("fleet did not drain within {DRAIN_LIMIT:?}"));
            break;
        }
        if folded == 0 {
            let mut nap = IDLE;
            if next < n {
                nap = nap.min(due(next).saturating_duration_since(Instant::now()));
            }
            env.tracer
                .span("bench.idle_sleep", || std::thread::sleep(nap));
        }
    }
    let end = pending.last_terminal.unwrap_or_else(Instant::now);
    run.wall_s = (end - start).as_secs_f64();
    run.note(
        "submit p50 (due -> submit_spec returns)",
        percentile(&submit_ms, 0.50),
        "ms",
    );
    run.note(
        "submit p99 (due -> submit_spec returns)",
        percentile(&submit_ms, 0.99),
        "ms",
    );
    rig.finish(env, &mut run);
    run
}

/// Closed loop under a seeded `@netchaos` plan on every shard's socket:
/// admit the run's jobs in batches, pump once after each batch, then
/// pump until every job is terminal. Latency runs from a job's batch
/// admission until a pump first shows it terminal.
pub fn netchaos(env: &Env) -> Run {
    let n = if env.smoke {
        SMOKE_NETCHAOS_JOBS
    } else {
        NETCHAOS_JOBS
    };
    let specs = job_specs(env.seed, n);
    let plan = NetFaultPlan::parse(NETCHAOS_PLAN)
        .expect("the netchaos plan parses")
        .expect("the plan has a directive");
    let mut run = Run {
        attempted: n,
        ..Run::default()
    };
    let mut rig = Rig::cold_start(env, Some(&plan), &mut run);

    let start = Instant::now();
    let mut pending = Pending::new();
    let mut prev = start;
    for batch in specs.chunks(NETCHAOS_BATCH) {
        let t = Instant::now();
        run.gen_lag_ms.push(ms(t - prev));
        let text = batch.join("\n");
        let ids = env
            .tracer
            .span("fleet.submit_spec", || rig.fleet.submit_spec(&text))
            .expect("the fleet admits a linted spec");
        pending.jobs.extend(ids.into_iter().map(|id| (id, t)));
        rig.pump(&env.tracer);
        pending.harvest(&rig.fleet, &mut run.latencies_ms);
        prev = Instant::now();
    }
    while !pending.jobs.is_empty() {
        let folded = rig.pump(&env.tracer);
        pending.harvest(&rig.fleet, &mut run.latencies_ms);
        if start.elapsed() > DRAIN_LIMIT {
            run.violations
                .push(format!("fleet did not drain within {DRAIN_LIMIT:?}"));
            break;
        }
        if folded == 0 && !pending.jobs.is_empty() {
            env.tracer
                .span("bench.idle_sleep", || std::thread::sleep(IDLE));
        }
    }
    let end = pending.last_terminal.unwrap_or_else(Instant::now);
    run.wall_s = (end - start).as_secs_f64();
    rig.finish(env, &mut run);
    run
}

/// The traced run's per-layer split, as shares of the run's wall
/// time, plus the coordinator's per-job counters.
fn layers(env: &Env, m: &FleetMetrics, run: &mut Run) {
    let rec = env.tracer.take();
    let wall = run.wall_s;
    let n = run.attempted as f64;
    let shard_ops: f64 = SHARD_OPS.iter().map(|s| rec.total_s(s)).sum();
    let wire = rec.total_s("fleet.net.exchange") + rec.total_s("fleet.net.reconnect");
    let rpc = m.rpc.iter().fold(RpcSnapshot::default(), |mut a, r| {
        a.ops += r.ops;
        a.retries += r.retries;
        a.timeouts += r.timeouts;
        a.reconnects += r.reconnects;
        a
    });
    let lines = |name: &str| {
        std::fs::File::open(env.system_dir().join(name))
            .map_or(0, |file| std::io::BufReader::new(file).lines().count()) as f64
    };
    let shard_lines: f64 = (0..SHARDS)
        .map(|s| lines(&format!("shard-{s}.jsonl")))
        .sum();

    for name in [
        "fleet.submit_spec",
        "fleet.pump",
        "fleet.shard.submit",
        "fleet.shard.job_phase",
        "fleet.shard.metrics",
        "fleet.shard.set_cap",
        "fleet.net.exchange",
        "fleet.net.reconnect",
        "bench.idle_sleep",
    ] {
        run.layer(&format!("{name}.frac"), rec.total_s(name) / wall);
    }
    run.layer(
        "fleet.pump_self.frac",
        (rec.total_s("fleet.pump") - shard_ops) / wall,
    );
    run.layer("fleet.rpc_wait.frac", (shard_ops - wire) / wall);
    run.layer("fleet.rpcs_per_job", rpc.ops as f64 / n);
    run.layer(
        "fleet.job_phase_useful_frac",
        rec.counter("fleet.job_phase.useful") / rec.calls("fleet.shard.job_phase").max(1) as f64,
    );
    run.layer("fleet.fleetlog.records_per_job", lines("fleet.jsonl") / n);
    run.layer("fleet.shard_journal.records_per_job", shard_lines / n);
    run.layer("fleet.retries", rpc.retries as f64);
    run.layer("fleet.timeouts", rpc.timeouts as f64);
    run.layer("fleet.reconnects", rpc.reconnects as f64);
    run.layer("fleet.rounds_per_job", m.rounds as f64 / n);
    run.layer(
        "bench.span_coverage",
        (rec.total_s("fleet.submit_spec")
            + rec.total_s("fleet.pump")
            + rec.total_s("bench.idle_sleep"))
            / wall,
    );
    run.recorder = rec;
}
