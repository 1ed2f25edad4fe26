//! `corun fleet` — drive a sharded fleet under one cluster power cap.
//!
//! Two modes:
//!
//! * **In-process** (default): spin up `--shards` local shard services,
//!   each simulating `--machines-per-shard` APUs, route `--spec` across
//!   them, drain, and print the aggregated books.
//! * **Remote** (`--addrs a:p,b:p,...`): each shard is a running
//!   `corun serve` daemon; the coordinator drives them over the
//!   line-JSON protocol and partitions the cluster cap with `set_cap`.
//!
//! Robustness knobs (see `docs/FLEET.md#network-faults`):
//!
//! * `--netchaos FILE` routes every coordinator↔shard RPC through a
//!   seeded fault layer (`@netchaos` directives: drops, delays,
//!   duplicates, truncation, partitions) — in both modes.
//! * `--journal PATH` write-ahead-logs the coordinator books;
//!   `--recover` rebuilds them after a coordinator crash and settles
//!   in-doubt jobs by keyed resubmission.
//! * `--op-timeout SECS` bounds each RPC (deadline across retries).
//!
//! `corun fleet status --addrs ...` aggregates the metrics of running
//! daemons without submitting anything.

use crate::args::Args;
use corun_core::WallClock;
use corun_fleet::net::{FaultyRaw, TcpRaw};
use corun_fleet::{
    lint_netchaos, over_local, start_local_shards, Circuit, Fleet, FleetConfig, FleetMetrics,
    NetConfig, NetFaultPlan, PlacementKind, RawTransport, RemoteShard, RpcShard, ShardBackend,
};
use corun_serve::{Service, ServiceConfig};
use std::sync::Arc;

/// Split a `--addrs` list on commas, rejecting empties.
fn parse_addrs(list: &str) -> Result<Vec<String>, String> {
    let addrs: Vec<String> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect();
    if addrs.is_empty() {
        return Err("--addrs needs at least one HOST:PORT".into());
    }
    Ok(addrs)
}

/// Read and lint a `--netchaos` file into a fault plan.
fn load_netchaos(args: &Args) -> Result<Option<NetFaultPlan>, String> {
    let Some(path) = args.opt("netchaos") else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("--netchaos {path}: {e}"))?;
    let (plan, report) = lint_netchaos(&text);
    if report.has_errors() {
        return Err(format!(
            "netchaos plan failed lint:\n{}",
            report.render_human()
        ));
    }
    plan.map(Some)
        .ok_or_else(|| format!("--netchaos {path}: no `@netchaos` directive found"))
}

fn connect_remote_shards(
    addrs: &[String],
    net: NetConfig,
    plan: Option<&NetFaultPlan>,
) -> Result<Vec<Box<dyn ShardBackend>>, String> {
    addrs
        .iter()
        .enumerate()
        .map(|(s, a)| match plan {
            None => RemoteShard::connect_with(a, net)
                .map(|sh| Box::new(sh) as Box<dyn ShardBackend>)
                .map_err(|e| format!("shard {a}: {e}")),
            Some(plan) => {
                let mut raw = TcpRaw::new(a, net.io_timeout_s);
                raw.reconnect().map_err(|e| format!("shard {a}: {e}"))?;
                let faulty = FaultyRaw::new(raw, plan.clone(), s);
                Ok(
                    Box::new(RpcShard::over(faulty, net, Arc::new(WallClock::new())))
                        as Box<dyn ShardBackend>,
                )
            }
        })
        .collect()
}

/// Start local shard services behind the full RPC + fault stack (the
/// `--netchaos` local mode). Returns the backends plus the service
/// handles — the RPC layer does not own its service, so the caller must
/// shut them down after the fleet finishes.
fn start_chaos_local_shards(
    template: &ServiceConfig,
    shards: usize,
    machines_per_shard: usize,
    journal_dir: Option<&std::path::Path>,
    plan: &NetFaultPlan,
    net: NetConfig,
) -> (Vec<Box<dyn ShardBackend>>, Vec<Arc<Service>>) {
    let mut backends: Vec<Box<dyn ShardBackend>> = Vec::with_capacity(shards);
    let mut services = Vec::with_capacity(shards);
    for s in 0..shards {
        let mut cfg = template.clone();
        cfg.machines = machines_per_shard;
        cfg.journal_path = journal_dir.map(|d| d.join(format!("shard-{s}.jsonl")));
        let svc = Arc::new(Service::start(cfg));
        backends.push(Box::new(over_local(
            Arc::clone(&svc),
            Some(plan.clone()),
            s,
            net,
            Arc::new(WallClock::new()),
        )));
        services.push(svc);
    }
    (backends, services)
}

/// `corun fleet [status]`.
pub fn cmd_fleet(args: &Args) -> Result<(), String> {
    if args.positional.get(1).map(String::as_str) == Some("status") {
        return cmd_fleet_status(args);
    }
    args.reject_unknown(&[
        "shards",
        "machines-per-shard",
        "cluster-cap",
        "addrs",
        "spec",
        "repeat",
        "placement",
        "machine",
        "cache",
        "journal-dir",
        "shard-floor",
        "steal-threshold",
        "rebalance-every",
        "timeout",
        "paranoid",
        "journal",
        "recover",
        "netchaos",
        "op-timeout",
    ])?;

    let addrs = args.opt("addrs").map(parse_addrs).transpose()?;
    let shards = match &addrs {
        Some(a) => a.len(),
        None => args.num_or("shards", 4usize)?,
    };
    let machines_per_shard = args.num_or("machines-per-shard", 2usize)?;
    let cluster_cap_w = args.num_or("cluster-cap", 15.0 * shards as f64)?;

    let mut cfg = FleetConfig::new(shards, machines_per_shard, cluster_cap_w);
    cfg.shard_floor_w = args.num_or("shard-floor", cfg.shard_floor_w)?;
    cfg.steal_threshold = args.num_or("steal-threshold", cfg.steal_threshold)?;
    cfg.rebalance_every = args.num_or("rebalance-every", cfg.rebalance_every)?;
    cfg.placement = PlacementKind::parse(args.opt_or("placement", "ring"))?;
    cfg.paranoid = args.flag("paranoid");
    cfg.journal_path = args.opt("journal").map(std::path::PathBuf::from);

    let recover = args.flag("recover");
    if recover && cfg.journal_path.is_none() {
        return Err("--recover needs --journal PATH (the coordinator's write-ahead log)".into());
    }
    let net = NetConfig {
        op_timeout_s: args.num_or("op-timeout", NetConfig::default().op_timeout_s)?,
        ..NetConfig::default()
    };
    let plan = load_netchaos(args)?;

    // Chaos-local services outlive the fleet; shut down after `finish`.
    let mut services: Vec<Arc<Service>> = Vec::new();
    let backends = match &addrs {
        Some(addrs) => connect_remote_shards(addrs, net, plan.as_ref())?,
        None => {
            let machine = match args.opt_or("machine", "ivy") {
                "ivy" | "ivy-bridge" => apu_sim::MachineConfig::ivy_bridge(),
                "kaveri" => apu_sim::MachineConfig::kaveri(),
                other => return Err(format!("unknown machine `{other}` (ivy, kaveri)")),
            };
            let mut template = ServiceConfig::fast(&machine);
            if let Some(dir) = args.opt("cache") {
                template.cache_dir = Some(std::path::PathBuf::from(dir));
            }
            let journal_dir = args.opt("journal-dir").map(std::path::PathBuf::from);
            if let Some(dir) = &journal_dir {
                std::fs::create_dir_all(dir).map_err(|e| format!("--journal-dir {dir:?}: {e}"))?;
            }
            println!("starting {shards} local shards x {machines_per_shard} machines ...");
            if let Some(plan) = &plan {
                let (backends, svcs) = start_chaos_local_shards(
                    &template,
                    shards,
                    machines_per_shard,
                    journal_dir.as_deref(),
                    plan,
                    net,
                );
                services = svcs;
                backends
            } else {
                start_local_shards(
                    &template,
                    shards,
                    machines_per_shard,
                    journal_dir.as_deref(),
                    |_| None,
                )
            }
        }
    };

    let mut fleet = if recover {
        let fleet = Fleet::recover(cfg, backends)?;
        let m = fleet.metrics();
        println!(
            "recovered coordinator books: {} job(s), {} in doubt, recovery #{}",
            m.jobs_total, m.in_doubt, m.fleet_recoveries
        );
        fleet
    } else {
        Fleet::new(cfg, backends)?
    };
    println!(
        "fleet up: {shards} shards, {} machines, {cluster_cap_w} W cluster cap",
        shards * machines_per_shard
    );

    let mut total = 0usize;
    if let Some(path) = args.opt("spec") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?;
        let repeat: usize = args.num_or("repeat", 1usize)?;
        for _ in 0..repeat.max(1) {
            total += fleet.submit_spec(&text)?.len();
            fleet.pump();
        }
    }
    let mut failure = None;
    if args.opt("spec").is_some() || recover {
        // Recovery drains the restored books even with no new spec.
        println!("admitted {total} job(s); draining ...");
        let timeout_s = args.num_or("timeout", 600.0)?;
        match drain_with_progress(&mut fleet, timeout_s) {
            Ok(m) => print!("{}", render_metrics(&m)),
            Err(e) => {
                print!("{}", render_metrics(&fleet.metrics()));
                failure = Some(e);
            }
        }
    } else {
        // No spec: just report the fleet's aggregated state.
        print!("{}", render_metrics(&fleet.metrics()));
    }
    if !fleet.chaos_report().is_empty() {
        print!("{}", fleet.chaos_report().render_human());
    }

    // Local shards are ours to stop; remote daemons keep running (use
    // `corun shutdown` per daemon to stop them).
    if addrs.is_none() {
        fleet.begin_shutdown();
        fleet.finish();
        for svc in &services {
            svc.shutdown();
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// [`Fleet::drain`] plus an operator progress line every few seconds:
/// terminal counts, in-doubt jobs, and any non-live circuits.
fn drain_with_progress(fleet: &mut Fleet, timeout_s: f64) -> Result<FleetMetrics, String> {
    const TICK_S: f64 = 5.0;
    // corun-lint: allow(wall-clock) — operator-facing drain deadline, an I/O edge.
    let start = std::time::Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(timeout_s);
    let mut next_tick = start + std::time::Duration::from_secs_f64(TICK_S);
    loop {
        let folded = fleet.pump();
        let m = fleet.metrics();
        if m.drained() {
            fleet.refresh();
            return Ok(fleet.metrics());
        }
        // corun-lint: allow(wall-clock) — operator-facing drain deadline, an I/O edge.
        let now = std::time::Instant::now();
        if now >= deadline {
            return Err(format!(
                "fleet did not drain within {timeout_s}s: {}/{} terminal \
                 ({} backlog, {} in flight, {} in doubt)",
                m.jobs_done + m.jobs_dead_letter + m.jobs_rejected,
                m.jobs_total,
                m.backlog,
                m.in_flight,
                m.in_doubt
            ));
        }
        if now >= next_tick {
            next_tick = now + std::time::Duration::from_secs_f64(TICK_S);
            println!("progress: {}", progress_line(&m));
        }
        if folded == 0 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}

/// One-line drain progress: `17/100 terminal, 8 in flight, 1 in doubt
/// [shard 2 dead]`.
fn progress_line(m: &FleetMetrics) -> String {
    let troubled: Vec<String> = m
        .circuits
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c != Circuit::Live)
        .map(|(s, c)| format!("shard {s} {}", c.as_str()))
        .collect();
    format!(
        "{}/{} terminal, {} in flight, {} in doubt{}",
        m.jobs_done + m.jobs_dead_letter + m.jobs_rejected,
        m.jobs_total,
        m.in_flight,
        m.in_doubt,
        if troubled.is_empty() {
            String::new()
        } else {
            format!(" [{}]", troubled.join(", "))
        }
    )
}

/// `corun fleet status --addrs a,b,c`: aggregate running daemons.
fn cmd_fleet_status(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["addrs", "cluster-cap", "op-timeout"])?;
    let addrs = parse_addrs(
        args.opt("addrs")
            .ok_or("--addrs HOST:PORT,... is required")?,
    )?;
    let net = NetConfig {
        op_timeout_s: args.num_or("op-timeout", NetConfig::default().op_timeout_s)?,
        ..NetConfig::default()
    };
    let mut backends = connect_remote_shards(&addrs, net, None)?;
    let mut total_done = 0usize;
    let mut total_submitted = 0usize;
    let mut total_queue = 0usize;
    let mut cap_sum = 0.0f64;
    println!(
        "shard  addr                   queue  submitted  done  dead  cap_w  \
         p50_ms  p99_ms  retries  backoffs  wait_s"
    );
    for (s, backend) in backends.iter_mut().enumerate() {
        let m = backend
            .metrics()
            .map_err(|e| format!("{}: {e}", addrs[s]))?;
        let r = backend.rpc_stats();
        println!(
            "{s:>5}  {:<21}  {:>5}  {:>9}  {:>4}  {:>4}  {:>5.1}  {:>6.1}  {:>6.1}  {:>7}  {:>8}  {:>6.3}",
            addrs[s],
            m.queue_depth,
            m.submitted,
            m.completed,
            m.dead_lettered,
            m.cap_w,
            r.p50_ms,
            r.p99_ms,
            r.retries,
            r.backoffs,
            r.backoff_s
        );
        total_done += m.completed;
        total_submitted += m.submitted;
        total_queue += m.queue_depth;
        cap_sum += m.cap_w;
    }
    println!(
        "total: {n} shard(s), {total_submitted} submitted, {total_done} done, \
         {total_queue} queued, caps sum {cap_sum:.1} W",
        n = addrs.len()
    );
    if let Some(cluster) = args.num::<f64>("cluster-cap")? {
        let report = corun_verify::lint_shard_caps(
            &backends
                .iter_mut()
                .filter_map(|b| b.metrics().ok().map(|m| m.cap_w))
                .collect::<Vec<_>>(),
            cluster,
        );
        if report.is_empty() {
            println!("cap check: OK (sum within the {cluster} W cluster cap)");
        } else {
            print!("{}", report.render_human());
            return Err("shard caps exceed the cluster cap".into());
        }
    }
    Ok(())
}

/// Human rendering of the fleet books (the smoke test greps these
/// lines — the `jobs:` and `power:` field positions are load-bearing).
fn render_metrics(m: &FleetMetrics) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fleet: {} shard(s) ({} alive), placement {}, round {}\n",
        m.shards.len(),
        m.alive.iter().filter(|&&a| a).count(),
        m.placement,
        m.rounds
    ));
    out.push_str(&format!(
        "jobs: {} total = {} done + {} dead-letter + {} rejected ({} backlog, {} in flight)\n",
        m.jobs_total, m.jobs_done, m.jobs_dead_letter, m.jobs_rejected, m.backlog, m.in_flight
    ));
    out.push_str(&format!(
        "power: cluster cap {:.1} W, caps sum {:.1} W, peak hand-out {:.1} W\n",
        m.cluster_cap_w, m.cap_sum_w, m.max_cap_sum_w
    ));
    out.push_str(&format!(
        "moves: {} steal(s), {} rebalance(s), {} lost-requeue(s)\n",
        m.steals, m.rebalances, m.lost_requeues
    ));
    let (ops, retries, reconnects, fenced, backoffs, backoff_s) =
        m.rpc.iter().fold((0, 0, 0, 0, 0, 0.0), |acc, r| {
            (
                acc.0 + r.ops,
                acc.1 + r.retries,
                acc.2 + r.reconnects,
                acc.3 + r.fenced,
                acc.4 + r.backoffs,
                acc.5 + r.backoff_s,
            )
        });
    out.push_str(&format!(
        "net: {ops} rpc op(s), {retries} retr(ies), {reconnects} reconnect(s), {fenced} fenced, \
         {} in doubt, {} coordinator recover(ies), {backoffs} backoff(s) waiting {backoff_s:.3} s\n",
        m.in_doubt, m.fleet_recoveries
    ));
    for (s, sm) in m.shards.iter().enumerate() {
        out.push_str(&format!(
            "shard {s}: {} queued, {} submitted, {} done, {} dead, cap {:.1} W, {}\n",
            sm.queue_depth,
            sm.submitted,
            sm.completed,
            sm.dead_lettered,
            sm.cap_w,
            if m.alive[s] { "alive" } else { "DOWN" }
        ));
        let r = &m.rpc[s];
        if r.ops > 0 {
            out.push_str(&format!(
                "shard {s} net: circuit {}, p50 {:.1} ms, p99 {:.1} ms, {} retries, \
                 {} reconnects, {} fenced, {} desyncs, {} backoffs waiting {:.3} s\n",
                m.circuits[s].as_str(),
                r.p50_ms,
                r.p99_ms,
                r.retries,
                r.reconnects,
                r.fenced,
                r.desyncs,
                r.backoffs,
                r.backoff_s
            ));
        }
    }
    out
}
