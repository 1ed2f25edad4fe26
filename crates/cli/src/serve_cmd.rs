//! The service-mode subcommands: `corun serve` (daemon) and its clients
//! `corun submit`, `corun status`, `corun shutdown`.

use crate::args::Args;
use apu_sim::MachineConfig;
use corun_serve::{Client, Json, RetryConfig, Server, Service, ServiceConfig};

/// SIGINT/SIGTERM plumbing: a handler just flags the request; a monitor
/// thread in [`cmd_serve`] turns the flag into the same graceful
/// drain-and-exit as the `shutdown` RPC (workers drain the queue, and
/// the shutdown path commits the journal).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn mark(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Install the flag-setting handler for SIGINT and SIGTERM.
    // The workspace forbids unsafe code; this is the sole exception —
    // two libc signal(2) registrations of an async-signal-safe handler
    // that only stores to an AtomicBool.
    #[allow(unsafe_code)]
    pub fn install() {
        unsafe {
            signal(SIGINT, mark);
            signal(SIGTERM, mark);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

fn machine_for(args: &Args) -> Result<MachineConfig, String> {
    match args.opt_or("machine", "ivy") {
        "ivy" | "ivy-bridge" => Ok(MachineConfig::ivy_bridge()),
        "kaveri" => Ok(MachineConfig::kaveri()),
        other => Err(format!("unknown machine `{other}` (ivy, kaveri)")),
    }
}

/// `corun serve`: characterize the machine, bind the TCP endpoint, and
/// run until a client sends `shutdown` or the process receives
/// SIGINT/SIGTERM (the queue drains first either way). `--journal FILE`
/// makes the daemon crash-safe; add `--recover` to resume a prior
/// journal after a hard kill. `--fault-plan SPEC` loads `@chaos`
/// directives for deterministic fault injection (see `docs/FAULTS.md`).
pub fn cmd_serve(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "machine",
        "cap",
        "port",
        "queue",
        "machines",
        "threads",
        "slice",
        "fast",
        "cache",
        "fault-plan",
        "journal",
        "recover",
        "max-retries",
    ])?;
    let machine = machine_for(args)?;
    let mut cfg = ServiceConfig::fast(&machine);
    if !args.flag("fast") {
        cfg.characterization = perf_model::CharacterizeConfig::paper(&machine);
    }
    cfg.cap_w = args.num_or("cap", 15.0)?;
    cfg.machines = args.num_or("machines", 1usize)?;
    // --threads N batch-steps the simulated machines on N worker
    // threads (0 = one thread per machine); see docs/SIM.md.
    cfg.worker_threads = args.num_or("threads", 0usize)?;
    cfg.queue_capacity = args.num_or("queue", 64usize)?;
    cfg.slice_s = args.num_or("slice", 5.0)?;
    if let Some(dir) = args.opt("cache") {
        cfg.cache_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(path) = args.opt("fault-plan") {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("--fault-plan {path}: {e}"))?;
        let (plan, report) = corun_verify::lint_chaos(&text);
        if report.has_errors() {
            print!("{}", report.render_human());
            return Err(format!("--fault-plan {path}: invalid @chaos directives"));
        }
        cfg.fault_plan =
            Some(plan.ok_or(format!("--fault-plan {path}: no @chaos directives found"))?);
    }
    if let Some(path) = args.opt("journal") {
        cfg.journal_path = Some(std::path::PathBuf::from(path));
        cfg.recover = args.flag("recover");
    } else if args.flag("recover") {
        return Err("--recover needs --journal FILE".into());
    }
    if let Some(n) = args.num::<u32>("max-retries")? {
        cfg.retry.max_retries = n;
    }
    let port: u16 = args.num_or("port", 7077u16)?;

    println!(
        "characterizing the machine ({} stages x {}x{} grid) ...",
        cfg.characterization.cpu_stage_levels.len() * cfg.characterization.gpu_stage_levels.len(),
        cfg.characterization.grid_points,
        cfg.characterization.grid_points
    );
    let service = Service::start(cfg);
    let server =
        Server::bind(service, &format!("127.0.0.1:{port}")).map_err(|e| format!("bind: {e}"))?;
    // The smoke test parses this line to discover the ephemeral port.
    println!("listening on {}", server.addr());

    // SIGINT/SIGTERM take the exact same graceful path as the shutdown
    // RPC; the monitor also retires itself once any shutdown begins.
    signals::install();
    let svc = server.service_handle();
    let monitor = std::thread::Builder::new()
        .name("corun-signals".into())
        .spawn(move || loop {
            if signals::requested() {
                svc.begin_shutdown();
                break;
            }
            if svc.is_shutting_down() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
        })
        .map_err(|e| format!("spawn signal monitor: {e}"))?;

    server.run_to_shutdown();
    let _ = monitor.join();
    println!("shutdown complete");
    Ok(())
}

fn connect(args: &Args) -> Result<Client, String> {
    let addr = args.opt("addr").ok_or("--addr HOST:PORT is required")?;
    Client::connect(addr)
}

/// `corun submit`: send a workload spec to a running daemon. By default
/// `queue_full` backpressure is retried with capped exponential back-off
/// (honoring the server's `retry_after_s` hint); `--no-retry` fails fast
/// and `--retries N` bounds the attempts.
pub fn cmd_submit(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["addr", "spec", "wait", "timeout", "no-retry", "retries"])?;
    let path = args.opt("spec").ok_or("--spec FILE is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("--spec {path}: {e}"))?;
    let mut client = connect(args)?;
    let ids = if args.flag("no-retry") {
        client.submit(&text)?
    } else {
        let mut retry = RetryConfig::default();
        if let Some(n) = args.num::<u32>("retries")? {
            retry.max_attempts = n.max(1);
        }
        client.submit_with_retry(&text, &retry)?
    };
    println!(
        "submitted {} job(s): {}",
        ids.len(),
        ids.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if args.flag("wait") {
        let timeout_s = args.num_or("timeout", 300.0)?;
        for &id in &ids {
            let status = client.wait_done(id, timeout_s)?;
            println!("{}", status.render());
        }
    }
    Ok(())
}

/// `corun status`: query one job (`--id N`), the accumulated `SRV0xx`
/// fault diagnostics (`--diag`), or the metrics snapshot.
pub fn cmd_status(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["addr", "id", "diag", "watch", "since", "follow", "interval"])?;
    let mut client = connect(args)?;
    if args.flag("watch") {
        return watch_ring(&mut client, args);
    }
    let response = if args.flag("diag") {
        client.diagnostics()?
    } else {
        match args.num::<usize>("id")? {
            Some(id) => client.status(id)?,
            None => {
                let metrics = client.metrics()?;
                if !metrics_look_sane(&metrics) {
                    return Err(format!("malformed metrics snapshot: {}", metrics.render()));
                }
                metrics
            }
        }
    };
    println!("{}", response.render());
    Ok(())
}

/// `corun status --watch`: print the daemon's metrics ring, one point
/// per line. By default drains whatever the ring retains past `--since`
/// (cursor `0`) and exits; `--follow` keeps polling every `--interval`
/// seconds (default 1) until the daemon goes away, a live-ops tail of
/// queue depth, power headroom, and per-machine utilization.
fn watch_ring(client: &mut Client, args: &Args) -> Result<(), String> {
    let mut cursor = args.num::<u64>("since")?.unwrap_or(0);
    let follow = args.flag("follow");
    let interval_s = args.num_or::<f64>("interval", 1.0)?;
    println!(
        "{:>6} {:>10} {:>10} {:>6} {:>10} {:>6} {:>5}  util",
        "seq", "wall_s", "sim_s", "queue", "headroom", "done", "dead"
    );
    loop {
        let response = client.watch(cursor)?;
        let points = response
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("malformed watch response: no points array")?;
        for p in points {
            println!("{}", render_point(p)?);
        }
        cursor = response
            .get("next")
            .and_then(Json::as_index)
            .ok_or("malformed watch response: no next cursor")? as u64;
        if !follow {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval_s.max(0.05)));
    }
}

/// One fixed-width line per metrics point.
fn render_point(p: &Json) -> Result<String, String> {
    let num = |k: &str| {
        p.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("malformed watch point: no `{k}`"))
    };
    let util: Vec<String> = p
        .get("util")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .map(|u| format!("{:.2}", u.as_f64().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default();
    Ok(format!(
        "{:>6} {:>10.3} {:>10.3} {:>6} {:>10.2} {:>6} {:>5}  [{}]",
        num("seq")? as u64,
        num("wall_s")?,
        num("sim_s")?,
        num("queue_depth")? as u64,
        num("headroom_w")?,
        num("completed")? as u64,
        num("dead_lettered")? as u64,
        util.join(" ")
    ))
}

/// `corun shutdown`: ask the daemon to drain and exit.
pub fn cmd_shutdown(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["addr"])?;
    let mut client = connect(args)?;
    client.shutdown()?;
    println!("shutdown requested");
    Ok(())
}

/// True if a `metrics` response looks structurally sound; `corun status`
/// (and the CI smoke test through it) fails loudly on malformed output.
fn metrics_look_sane(metrics: &Json) -> bool {
    metrics.get("ok").and_then(Json::as_bool) == Some(true)
        && metrics
            .get("queue_depth")
            .and_then(Json::as_index)
            .is_some()
        && metrics.get("util").and_then(Json::as_arr).is_some()
}
