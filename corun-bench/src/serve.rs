//! `serve-burst`: one journaled `corun serve` daemon behind a real TCP
//! socket, driven closed-loop by one thread over one connection.
//!
//! Admission does nearly all the work here (protocol, lint, profiling,
//! model growth, journal fsync, snapshots); the simulated machines finish
//! the small jobs about as fast as they arrive.

use crate::run::{Env, Run};
use crate::trace::Tracer;
use crate::{job_specs, ms};
use corun_serve::json::obj;
use corun_serve::{Client, Journal, Json, Server, Service, ServiceConfig};
use std::io::BufRead;
use std::path::Path;
use std::time::{Duration, Instant};

/// Submits per run. Journal snapshots re-encode the whole job table, so
/// the cost of a submit grows with history; 20,000 jobs is long enough
/// for that growth to dominate, as it does in a long-lived daemon.
const JOBS: usize = 20_000;
const SMOKE_JOBS: usize = 200;
/// Metrics poll interval while waiting for the last jobs to finish.
const POLL: Duration = Duration::from_millis(2);
/// A run that has not drained by then counts its stragglers as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Journal lines re-appended to measure the fsync cost per record.
const FSYNC_SAMPLE: usize = 256;

/// The daemon configuration every serve and fleet workload starts from:
/// `ServiceConfig::fast` on the Ivy Bridge preset with a cold
/// characterization cache under `dir`.
pub fn service_config(dir: &Path, machines: usize, journal: &str) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.machines = machines;
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.journal_path = Some(dir.join(journal));
    cfg
}

/// Two machines and a queue no burst fills; `snapshot_every` stays at
/// its default of 256 records.
fn daemon_config(dir: &Path) -> ServiceConfig {
    let mut cfg = service_config(dir, 2, "serve.jsonl");
    cfg.queue_capacity = 100_000;
    cfg
}

pub fn run(env: &Env) -> Run {
    let n = if env.smoke { SMOKE_JOBS } else { JOBS };
    let specs = job_specs(env.seed, n);
    let mut run = Run {
        attempted: n,
        ..Run::default()
    };

    let ((server, mut client), setup_s) = env.cold_start(
        |dir| {
            let server = Server::bind(Service::start(daemon_config(dir)), "127.0.0.1:0")
                .expect("bind the daemon's TCP socket");
            let client =
                Client::connect(&server.addr().to_string()).expect("connect to the daemon");
            (server, client)
        },
        |(server, client)| {
            drop(client);
            server.service().shutdown();
        },
    );
    run.setup_s = setup_s;

    let start = Instant::now();
    let mut prev = start;
    let mut refused = 0;
    for spec in &specs {
        let t = Instant::now();
        run.gen_lag_ms.push(ms(t - prev));
        let reply = env.tracer.span("serve.rpc", || client.submit(spec));
        prev = Instant::now();
        run.latencies_ms.push(ms(prev - t));
        if !matches!(reply, Ok(ids) if ids.len() == 1) {
            refused += 1;
        }
    }
    let acked = prev;
    // A refused submit never reaches the daemon's books.
    let expected = n - refused;
    let end = loop {
        let m = client
            .metrics()
            .expect("metrics over the client connection");
        let num = |k: &str| m.get(k).and_then(Json::as_index).unwrap_or(0);
        let now = Instant::now();
        if num("completed") + num("dead_lettered") + num("rejected") >= expected {
            break now;
        }
        if now - acked > DRAIN_LIMIT {
            run.violations.push(format!(
                "daemon did not drain within {DRAIN_LIMIT:?} of the last ack"
            ));
            break now;
        }
        std::thread::sleep(POLL);
    };
    run.wall_s = (end - start).as_secs_f64();
    env.tracer
        .record("serve.drain", (end - acked).as_secs_f64());
    // The journal as the window left it, before shutdown appends to it.
    let journal = env
        .tracer
        .enabled()
        .then(|| JournalShape::scan(&env.system_dir().join("serve.jsonl")));

    drop(client);
    let service = server.service();
    let m = service.metrics();
    service.shutdown();
    drop(server);

    run.done = m.completed;
    if refused > 0 {
        run.violations
            .push(format!("{refused} of {n} submits were refused"));
    }
    if m.completed + m.dead_lettered + m.rejected != n || m.queue_depth != 0 {
        run.violations.push(format!(
            "books do not balance: {} done + {} dead + {} rejected != {n} submitted \
             ({} still queued)",
            m.completed, m.dead_lettered, m.rejected, m.queue_depth
        ));
    }
    run.cap_violations = m.cap_violations;
    run.power_samples = m.cap_samples;
    run.sim_s = m.sim_now_s.iter().sum();

    if let Some(journal) = journal {
        layers(env, &specs, &journal, &mut run);
    }
    run
}

/// What the per-layer split needs from the run's journal, read line by
/// line: the journal of a full run is hundreds of megabytes.
struct JournalShape {
    lines: usize,
    bytes: usize,
    snapshots: usize,
    snapshot_bytes: usize,
    /// Every k-th line, about [`FSYNC_SAMPLE`] of them, so big snapshot
    /// lines are sampled in proportion.
    sample: Vec<String>,
}

impl JournalShape {
    fn scan(path: &Path) -> JournalShape {
        let each_line = |f: &mut dyn FnMut(usize, &str)| {
            let file = std::fs::File::open(path).expect("open the journal");
            for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
                f(i, &line.expect("read the journal"));
            }
        };
        let mut shape = JournalShape {
            lines: 0,
            bytes: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            sample: Vec::new(),
        };
        each_line(&mut |_, line| {
            shape.lines += 1;
            shape.bytes += line.len() + 1;
            if line.starts_with("{\"t\":\"snapshot\"") {
                shape.snapshots += 1;
                shape.snapshot_bytes += line.len() + 1;
            }
        });
        let step = (shape.lines / FSYNC_SAMPLE).max(1);
        each_line(&mut |i, line| {
            if i % step == 0 {
                shape.sample.push(line.to_string());
            }
        });
        shape
    }
}

/// The traced run's per-layer split. The TCP pass above timed whole
/// RPCs; a second in-process pass over the same specs on a fresh daemon
/// splits them into JSON and admission, the journal of the TCP pass is
/// scanned for its shape, and a sample of its lines is re-appended to a
/// scratch journal to price the fsync.
fn layers(env: &Env, specs: &[&str], journal: &JournalShape, run: &mut Run) {
    in_process_pass(&env.dir, specs, &env.tracer);
    let sample_bytes = fsync_sample(&env.dir, &journal.sample, &env.tracer);
    let rec = env.tracer.take();
    let (rpc, json, admit) = (
        rec.total_s("serve.rpc"),
        rec.total_s("serve.json"),
        rec.total_s("serve.admit"),
    );
    let (drain, fsync) = (rec.total_s("serve.drain"), rec.total_s("serve.fsync"));
    let samples = rec.calls("serve.fsync").max(1) as f64;
    let (n, wall) = (specs.len() as f64, run.wall_s);

    run.layer("serve.rpc.frac", rpc / wall);
    run.layer("serve.json.frac", json / wall);
    run.layer("serve.admit.frac", admit / wall);
    run.layer("serve.socket.frac", (rpc - json - admit) / wall);
    run.layer(
        "serve.fsync.frac",
        fsync * journal.lines as f64 / samples / wall,
    );
    run.layer("serve.drain_tail.frac", drain / wall);
    run.layer("serve.journal.records_per_job", journal.lines as f64 / n);
    run.layer("serve.journal.bytes_per_job", journal.bytes as f64 / n);
    run.layer("serve.snapshot.count", journal.snapshots as f64);
    run.layer(
        "serve.snapshot.bytes_frac",
        journal.snapshot_bytes as f64 / journal.bytes.max(1) as f64,
    );
    run.layer("bench.span_coverage", (rpc + drain) / wall);
    run.note("serve.fsync per record", fsync / samples * 1e6, "us");
    run.note(
        "serve.fsync per MB",
        fsync / (sample_bytes as f64 / 1e6),
        "s/MB",
    );
    run.recorder = rec;
}

/// Replays `specs` through the daemon's protocol and admission entry
/// points without a socket, recording the time spent in JSON (client
/// render + server parse, then server render + client parse) as
/// `serve.json` and in `Service::submit_spec` as `serve.admit`.
fn in_process_pass(dir: &Path, specs: &[&str], tracer: &Tracer) {
    let sub = dir.join("in-process");
    std::fs::create_dir_all(&sub).expect("create the in-process pass dir");
    let service = Service::start(daemon_config(&sub));
    for spec in specs {
        let t = Instant::now();
        let line = obj(vec![
            ("op", Json::Str("submit".into())),
            ("spec", Json::Str((*spec).into())),
        ])
        .render();
        let request = Json::parse(&line).expect("request round-trips");
        let text = request
            .get("spec")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let parsed = Instant::now();
        let ids = service.submit_spec(text).expect("in-process admission");
        let admitted = Instant::now();
        let reply = obj(vec![
            ("ok", Json::Bool(true)),
            (
                "ids",
                Json::Arr(ids.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
        ])
        .render();
        Json::parse(&reply).expect("reply round-trips");
        let done = Instant::now();
        tracer.record("serve.json", (parsed - t + (done - admitted)).as_secs_f64());
        tracer.record("serve.admit", (admitted - parsed).as_secs_f64());
    }
    service.shutdown();
    // The twin's journal is as large as the measured one; free the disk.
    let _ = std::fs::remove_dir_all(&sub);
}

/// Re-appends `lines` to a scratch journal beside the real one, one
/// `serve.fsync` span each. Returns the bytes written.
fn fsync_sample(dir: &Path, lines: &[String], tracer: &Tracer) -> usize {
    let mut scratch =
        Journal::create_raw(&dir.join("fsync-sample.jsonl")).expect("create the scratch journal");
    let mut bytes = 0;
    for line in lines {
        tracer.span("serve.fsync", || {
            scratch
                .append_line(line)
                .expect("append to the scratch journal")
        });
        bytes += line.len() + 1;
    }
    bytes
}
