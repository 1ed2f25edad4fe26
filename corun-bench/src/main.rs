//! `corun_bench` — the repository's benchmark: end-to-end and per-layer
//! metrics for the `corun serve` daemon, the `corun fleet` coordinator,
//! and the paper's offline pipeline.
//!
//! ```text
//! corun_bench [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! corun_bench compare BASE.jsonl HEAD.jsonl
//! ```
//!
//! A run of one workload cold-starts the system in a fresh directory,
//! drives it with the workload's whole load once, checks the outputs and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a second, traced run of the same workload and seed. Without
//! `--workload` every workload runs in a child process of its own, so
//! peak memory is per workload, and the last line carries all of their
//! metrics, prefixed by workload name.
//!
//! `BENCHMARK.md` beside this package explains the workloads and metrics.

#![forbid(unsafe_code)]

mod compare;
mod fleet;
mod offline;
mod run;
mod serve;
mod stats;
mod trace;

use corun_core::DetRng;
use corun_serve::json::obj;
use corun_serve::Json;
use run::{Env, Run};
use stats::{peak_rss_mb, percentile, windowed_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use trace::Tracer;

const USAGE: &str =
    "usage: corun_bench [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
       corun_bench compare BASE.jsonl HEAD.jsonl
workloads: serve-burst fleet-paced fleet-netchaos offline-paper";

/// One workload: its name, how its load is generated, what its latency
/// measures, and how its tail latency is taken: the `tail_q` percentile
/// over the run, or with a `tail_window` the median over consecutive
/// windows of that many samples of each window's `tail_q` percentile.
/// Every tail has at least ten samples beyond it (in each window).
/// Windows keep one host stall from setting a whole run's tail while
/// recurring stalls, such as journal snapshots, still show in each. The
/// fleet-paced tail is the p90: its higher percentiles are set by how
/// long the shared disk takes to sync a snapshot, which varied by a third
/// between runs.
struct Workload {
    name: &'static str,
    load: &'static str,
    latency: &'static str,
    tail_q: f64,
    tail_window: Option<usize>,
    run: fn(&Env) -> Run,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-burst",
        load: "closed loop, 1 thread, 1 TCP connection: 20000 single-job submits, \
               then metrics polls every 2 ms until all are terminal",
        latency: "submit RPC round trip",
        tail_q: 0.99,
        tail_window: Some(2000),
        run: serve::run,
    },
    Workload {
        name: "fleet-paced",
        load: "open loop, 1 coordinator thread, 2 TCP shard connections: 500 jobs/s \
               for --seconds",
        latency: "due time -> job terminal in the router",
        tail_q: 0.90,
        tail_window: Some(1000),
        run: fleet::paced,
    },
    Workload {
        name: "fleet-netchaos",
        load: "closed loop, 1 coordinator thread, 2 TCP shard connections under \
               @netchaos seed=9 drop=0.05 dup=0.05 truncate=0.03: 2000 jobs in batches of 50",
        latency: "batch admission -> job terminal in the router",
        tail_q: 0.95,
        tail_window: None,
        run: fleet::netchaos,
    },
    Workload {
        name: "offline-paper",
        load: "1 thread, no I/O: 300 rodinia16 batches after a cold characterization",
        latency: "simulated HCS+ makespan of a batch at 15 W",
        tail_q: 0.95,
        tail_window: None,
        run: offline::run,
    },
];

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cap_ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it, which is the prediction for that workload.
const PER_LAYER: [(&str, &str); 46] = [
    ("serve.rpc.frac", "frac"),
    ("serve.json.frac", "frac"),
    ("serve.admit.frac", "frac"),
    ("serve.socket.frac", "frac"),
    ("serve.fsync.frac", "frac"),
    ("serve.drain_tail.frac", "frac"),
    ("serve.journal.records_per_job", "records/job"),
    ("serve.journal.bytes_per_job", "B/job"),
    ("serve.snapshot.count", "count"),
    ("serve.snapshot.bytes_frac", "frac"),
    ("fleet.submit_spec.frac", "frac"),
    ("fleet.pump.frac", "frac"),
    ("fleet.shard.submit.frac", "frac"),
    ("fleet.shard.job_phase.frac", "frac"),
    ("fleet.shard.metrics.frac", "frac"),
    ("fleet.shard.set_cap.frac", "frac"),
    ("fleet.net.exchange.frac", "frac"),
    ("fleet.net.reconnect.frac", "frac"),
    ("fleet.pump_self.frac", "frac"),
    ("fleet.rpc_wait.frac", "frac"),
    ("fleet.rpcs_per_job", "rpcs/job"),
    ("fleet.job_phase_useful_frac", "frac"),
    ("fleet.fleetlog.records_per_job", "records/job"),
    ("fleet.shard_journal.records_per_job", "records/job"),
    ("fleet.retries", "count"),
    ("fleet.timeouts", "count"),
    ("fleet.reconnects", "count"),
    ("fleet.rounds_per_job", "rounds/job"),
    ("offline.profile.frac", "frac"),
    ("offline.characterize.frac", "frac"),
    ("offline.probe.frac", "frac"),
    ("offline.model.frac", "frac"),
    ("offline.hcs.frac", "frac"),
    ("offline.refine.frac", "frac"),
    ("offline.lower_bound.frac", "frac"),
    ("offline.execute.frac", "frac"),
    ("offline.makespan_over_lb", "ratio"),
    ("sim.samples_per_job", "samples/job"),
    ("sim.host_us_per_sample", "us"),
    ("sim.sim_s_per_wall_s", "sim_s/s"),
    ("sim.cap_violation_frac", "frac"),
    ("bench.span_coverage", "frac"),
    ("bench.trace_overhead", "frac"),
    ("bench.idle_sleep.frac", "frac"),
    ("bench.gen_lag_p50_ms", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
];

/// The daemons' job mix: small jobs, so admission rather than
/// simulation dominates.
const MIX: [&str; 3] = ["srad x0.05", "lud x0.05", "hotspot x0.05"];

/// `n` single-job spec lines drawn from [`MIX`] by `seed`.
pub fn job_specs(seed: u64, n: usize) -> Vec<&'static str> {
    let mut rng = DetRng::new(seed);
    (0..n)
        .map(|_| MIX[(rng.next_u64() % MIX.len() as u64) as usize])
        .collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: None,
            seed: 9,
            seconds: 12.0,
            trace: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value()?;
                    opts.workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|w| w.name == name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => {
                    opts.seed = value()?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?;
                }
                "--seconds" => {
                    opts.seconds = value()?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                        .ok_or("--seconds needs a number in (0, 60]")?;
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    };
                }
                "--smoke" => opts.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The arguments that reproduce these options for one workload.
    fn args_for(&self, w: &Workload) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            w.name.to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        args
    }
}

/// Removes a directory tree when dropped, including while a panic
/// unwinds, so a failed run leaves no journals behind.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> ScratchDir {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs keep their scratch dirs and trace files, inside the
/// directory the benchmark runs from.
const RUN_DIR: &str = ".bench_run";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("corun_bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("corun_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let correct = match opts.workload {
        Some(w) => run_workload(w, &opts).correct,
        None => run_all(&opts),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a workload run printed as its result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, Json)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }

    fn from_json(line: &str) -> Option<Outcome> {
        let j = Json::parse(line).ok()?;
        let count = |k: &str| j.get(k).and_then(Json::as_index);
        let Some(Json::Obj(metrics)) = j.get("metrics") else {
            return None;
        };
        Some(Outcome {
            correct: j.get("correct") == Some(&Json::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics: metrics.clone(),
        })
    }
}

/// Run one workload in this process (twice with `--trace 1`: untraced,
/// then traced) and print its result line.
fn run_workload(w: &Workload, opts: &Opts) -> Outcome {
    println!(
        "corun_bench {}: seed {}, trace {}{}",
        w.name,
        opts.seed,
        u8::from(opts.trace),
        if opts.smoke { ", smoke scale" } else { "" }
    );
    println!("  load: {}", w.load);
    let root = Path::new(RUN_DIR).join(format!("{}-{}", w.name, std::process::id()));
    let measure = |name: &str, tracer: Tracer| {
        let scratch = ScratchDir::create(root.join(name));
        let env = Env {
            dir: scratch.0.clone(),
            seed: opts.seed,
            seconds: opts.seconds,
            smoke: opts.smoke,
            tracer,
        };
        (w.run)(&env)
    };
    let untraced = measure("untraced", Tracer::off());
    let peak_rss = peak_rss_mb();
    let traced = opts.trace.then(|| measure("traced", Tracer::on()));
    let _ = std::fs::remove_dir(&root);

    let runs: Vec<&Run> = std::iter::once(&untraced).chain(&traced).collect();
    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failed()).sum();
    let mut violations: Vec<String> = runs
        .iter()
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    if traced
        .as_ref()
        .is_some_and(|t| t.makespans != untraced.makespans)
    {
        violations.push("traced makespans differ from the untraced ones".into());
    }
    for v in &violations {
        println!("  CHECK FAILED: {v}");
    }
    let correct = violations.is_empty() && failed == 0;

    let e2e = end_to_end(w, &untraced, peak_rss);
    print_end_to_end(w, &untraced, &e2e);
    let metrics = match &traced {
        Some(traced) => {
            let layers = per_layer(&untraced, traced);
            print_per_layer(w, traced, &layers);
            write_trace_file(w, opts, traced, &layers);
            layers
        }
        None => e2e,
    };
    let units: BTreeMap<&str, &str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    let metrics = metrics
        .into_iter()
        .map(|(name, value)| {
            let unit = units.get(name.as_str()).copied().unwrap_or("");
            (
                name,
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics,
    };
    println!("{}", outcome.to_json().render());
    // Leaves the run dir in place only when it holds a trace file.
    let _ = std::fs::remove_dir(RUN_DIR);
    outcome
}

/// End-to-end metrics of the untraced run: medians and tails over the
/// run's samples, totals over its window.
fn end_to_end(w: &Workload, run: &Run, peak_rss_mb: f64) -> BTreeMap<String, f64> {
    BTreeMap::from([
        ("setup_s".to_string(), run.setup_s),
        ("jobs_per_s".to_string(), run.jobs_per_s()),
        (
            "latency_p50_ms".to_string(),
            percentile(&run.latencies_ms, 0.5),
        ),
        (
            "latency_tail_ms".to_string(),
            windowed_percentile(&run.latencies_ms, w.tail_q, w.tail_window),
        ),
        ("cap_ok_frac".to_string(), run.cap_ok_frac()),
        ("peak_rss_mb".to_string(), peak_rss_mb),
    ])
}

fn print_end_to_end(w: &Workload, run: &Run, e2e: &BTreeMap<String, f64>) {
    let n = run.latencies_ms.len();
    let explain = |name: &str| match name {
        "setup_s" => format!("median of {} cold starts", run::SETUPS),
        "jobs_per_s" => match run.rate {
            None => format!("{} jobs done in {:.3} s", run.done, run.wall_s),
            Some(_) => "jobs in a batch over the median batch time".to_string(),
        },
        "latency_p50_ms" => format!("p50 {}, n={n}", w.latency),
        "latency_tail_ms" => match w.tail_window {
            None => format!("p{} {}, n={n}", w.tail_q * 100.0, w.latency),
            Some(k) => format!(
                "median over windows of {k} of the window p{}, n={n}",
                w.tail_q * 100.0
            ),
        },
        "cap_ok_frac" => format!(
            "power samples at or under the cap, of {}",
            run.power_samples
        ),
        _ => "VmHWM of the workload's process".to_string(),
    };
    println!("  end-to-end (untraced run):");
    for (name, unit) in END_TO_END {
        println!(
            "    {name:<18} {:>12.4} {unit:<7} ({})",
            e2e[name],
            explain(name)
        );
    }
    println!(
        "    {:<18} {:>12.6} ratio   (jobs not done, of {})",
        "failed_frac",
        run.failed() as f64 / run.attempted.max(1) as f64,
        run.attempted
    );
    for (label, value, unit) in &run.notes {
        println!("    {label}: {value:.4} {unit}");
    }
}

/// Per-layer metrics of the traced run, plus the simulator and generator
/// figures every workload has and the tracing overhead against the
/// untraced run.
fn per_layer(untraced: &Run, traced: &Run) -> BTreeMap<String, f64> {
    let mut values = traced.layers.clone();
    let jobs = traced.attempted.max(1) as f64;
    values.insert(
        "sim.samples_per_job".into(),
        traced.power_samples as f64 / jobs,
    );
    values.insert(
        "sim.sim_s_per_wall_s".into(),
        traced.sim_s / traced.wall_s.max(1e-9),
    );
    values.insert("sim.cap_violation_frac".into(), 1.0 - traced.cap_ok_frac());
    values.insert(
        "bench.gen_lag_p50_ms".into(),
        percentile(&traced.gen_lag_ms, 0.5),
    );
    values.insert(
        "bench.gen_lag_p99_ms".into(),
        percentile(&traced.gen_lag_ms, 0.99),
    );
    values.insert(
        "bench.trace_overhead".into(),
        traced.wall_s / untraced.wall_s.max(1e-9) - 1.0,
    );
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            (
                (*name).to_string(),
                values.get(*name).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

fn print_per_layer(w: &Workload, traced: &Run, layers: &BTreeMap<String, f64>) {
    println!("  spans of the traced run of {}:", w.name);
    println!(
        "    {:<26} {:>9} {:>11} {:>10} {:>10}",
        "span", "count", "total_s", "p50_us", "p99_us"
    );
    for (name, span) in &traced.recorder.spans {
        let samples = &span.samples_s;
        println!(
            "    {name:<26} {:>9} {:>11.4} {:>10.1} {:>10.1}",
            samples.len(),
            samples.iter().sum::<f64>(),
            percentile(samples, 0.5) * 1e6,
            percentile(samples, 0.99) * 1e6
        );
    }
    let coverage = layers["bench.span_coverage"];
    println!(
        "  top-level spans cover {:.1}% of wall time; uncovered remainder {:.1}%",
        coverage * 100.0,
        (1.0 - coverage) * 100.0
    );
    println!(
        "  tracing overhead: traced window {:.3} s, {:+.1}% of the untraced one",
        traced.wall_s,
        layers["bench.trace_overhead"] * 100.0
    );
    println!("  per-layer metrics (traced run):");
    for (name, unit) in PER_LAYER {
        println!("    {name:<38} {:>14.6} {unit}", layers[name]);
    }
}

/// Span summaries, counters and the per-layer values, for digging after
/// the run: `.bench_run/trace-<workload>.json`.
fn write_trace_file(w: &Workload, opts: &Opts, traced: &Run, layers: &BTreeMap<String, f64>) {
    let to_obj = |m: &BTreeMap<String, f64>| {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect())
    };
    let spans = traced
        .recorder
        .spans
        .iter()
        .map(|(name, span)| {
            let samples = &span.samples_s;
            let summary = obj(vec![
                ("count", Json::Num(samples.len() as f64)),
                ("total_s", Json::Num(samples.iter().sum())),
                ("p50_us", Json::Num(percentile(samples, 0.50) * 1e6)),
                ("p99_us", Json::Num(percentile(samples, 0.99) * 1e6)),
            ]);
            (name.clone(), summary)
        })
        .collect();
    let doc = obj(vec![
        ("workload", Json::Str(w.name.into())),
        ("seed", Json::Num(opts.seed as f64)),
        ("wall_s", Json::Num(traced.wall_s)),
        ("spans", Json::Obj(spans)),
        ("counters", to_obj(&traced.recorder.counters)),
        ("per_layer", to_obj(layers)),
    ]);
    let path = Path::new(RUN_DIR).join(format!("trace-{}.json", w.name));
    let written =
        std::fs::create_dir_all(RUN_DIR).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(e) => println!("  trace not written to {}: {e}", path.display()),
    }
}

/// Run every workload in a child process of its own; the last line
/// merges their results, with each metric prefixed by its workload.
fn run_all(opts: &Opts) -> bool {
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for w in &WORKLOADS {
        match run_child(w, opts) {
            Ok(o) => {
                all.correct &= o.correct;
                all.attempted += o.attempted;
                all.failed += o.failed;
                let prefixed = o
                    .metrics
                    .into_iter()
                    .map(|(n, v)| (format!("{}.{n}", w.name), v));
                all.metrics.extend(prefixed);
            }
            Err(e) => {
                println!("  CHECK FAILED: {}: {e}", w.name);
                all.correct = false;
            }
        }
    }
    println!("{}", all.to_json().render());
    all.correct
}

/// Run one workload as a child process, echo its report, and read back
/// its result line.
fn run_child(w: &Workload, opts: &Opts) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let out = Command::new(exe)
        .args(opts.args_for(w))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().collect::<Vec<_>>();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    match Outcome::from_json(last) {
        Some(o) if out.status.success() || !o.correct => Ok(o),
        _ => Err(format!("exited with {} and no result line", out.status)),
    }
}
