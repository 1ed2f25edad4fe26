//! `offline-paper`: the paper's pipeline with no I/O beyond the
//! characterization cache. Each batch is `kernels::rodinia16` at seeded
//! input scales; the runtime profiles it, probes the LLC, builds the
//! model, schedules with HCS+, bounds, and executes at 15 W.
//!
//! The pipeline's median wall time per batch sets the job rate. The latency a user of the
//! scheduler waits for is the batch's simulated makespan, the paper's
//! figure of merit, so a change in schedule quality moves it too.
//!
//! The untraced path calls `CoScheduleRuntime` as a user would. The
//! traced path calls the pieces of `CoScheduleRuntime::new`,
//! `schedule_hcs_plus` and `execute_planned` in the same order, one span
//! each, and must reproduce the untraced makespans bit for bit.

use crate::run::{Env, Run};
use crate::trace::Tracer;
use apu_sim::{JobSpec, MachineConfig, NullGovernor, RunReport};
use corun_core::{hcs, lower_bound, refine, HcsConfig, Objective, RefineConfig};
use perf_model::{probe_batch, profile_batch, StagedPredictor};
use runtime::{
    build_table_model, characterize_cached, execute_schedule, CoScheduleRuntime, LevelPolicy,
    RuntimeConfig,
};
use std::path::Path;
use std::time::Instant;

/// Batches per run, after a cold characterization: enough for fifteen
/// beyond the p95 of their makespans.
const BATCHES: usize = 300;
const SMOKE_BATCHES: usize = 3;
const JOBS_PER_BATCH: usize = 16;

/// The stages of the traced path, in call order.
const STAGES: [&str; 8] = [
    "offline.profile",
    "offline.characterize",
    "offline.probe",
    "offline.model",
    "offline.hcs",
    "offline.refine",
    "offline.lower_bound",
    "offline.execute",
];

struct Batch {
    /// Wall time of the pipeline alone (checks excluded).
    seconds: f64,
    lower_bound_s: f64,
    report: RunReport,
    /// Lint-clean HCS+ schedule (untraced path) or a complete one
    /// (traced path, which has no runtime object to lint against).
    valid: bool,
}

pub fn run(env: &Env) -> Run {
    let machine = MachineConfig::ivy_bridge();
    let mut cfg = RuntimeConfig::paper(&machine);
    let count = if env.smoke { SMOKE_BATCHES } else { BATCHES };
    let mut seeds = corun_core::DetRng::new(env.seed);
    let batches: Vec<Vec<JobSpec>> = (0..count)
        .map(|_| kernels::rodinia16(&machine, seeds.next_u64()).jobs)
        .collect();
    let mut run = Run {
        attempted: count * JOBS_PER_BATCH,
        ..Run::default()
    };

    let ((), setup_s) = env.cold_start(
        |dir| {
            characterize_cached(&machine, &cfg.characterization, &dir.join("cache"));
        },
        |()| {},
    );
    run.setup_s = setup_s;
    cfg.cache_dir = Some(env.system_dir().join("cache"));
    env.tracer.take();

    let mut ratio_sum = 0.0;
    let mut batch_ms = Vec::with_capacity(count);
    let mut prev = Instant::now();
    for jobs in &batches {
        run.gen_lag_ms.push(crate::ms(prev.elapsed()));
        let batch = if env.tracer.enabled() {
            staged(&machine, jobs, &cfg, &env.tracer)
        } else {
            whole(&machine, jobs, &cfg)
        };
        run.wall_s += batch.seconds;
        batch_ms.push(batch.seconds * 1e3);
        run.latencies_ms.push(batch.report.makespan_s * 1e3);
        let records = batch.report.records.len();
        if records == JOBS_PER_BATCH && batch.valid {
            run.done += JOBS_PER_BATCH;
        } else {
            run.violations.push(format!(
                "batch ran {records}/{JOBS_PER_BATCH} jobs, schedule valid: {}",
                batch.valid
            ));
        }
        let trace = &batch.report.trace;
        ratio_sum += batch.report.makespan_s / batch.lower_bound_s;
        run.power_samples += trace.samples_w.len();
        run.cap_violations += trace.samples_w.iter().filter(|&&w| w > cfg.cap_w).count();
        run.sim_s += batch.report.makespan_s;
        run.makespans.push(batch.report.makespan_s);
        prev = Instant::now();
    }
    let makespan_over_lb = ratio_sum / count as f64;
    run.note(
        "makespan_over_lb (mean HCS+ makespan / lower bound)",
        makespan_over_lb,
        "ratio",
    );
    // The rate of the typical batch: host stalls that slow a stretch of
    // batches move the mean batch time of one run far more than its
    // median.
    let median_batch_ms = crate::stats::median(&batch_ms);
    run.rate = Some(JOBS_PER_BATCH as f64 / (median_batch_ms / 1e3).max(1e-12));
    run.note("batch wall time p50", median_batch_ms, "ms");

    // The other path on the first batch must agree bit for bit.
    let other = if env.tracer.enabled() {
        whole(&machine, &batches[0], &cfg)
    } else {
        staged(&machine, &batches[0], &cfg, &Tracer::off())
    };
    if other.report.makespan_s.to_bits() != run.makespans[0].to_bits() {
        run.violations.push(format!(
            "traced and untraced paths disagree on batch 0: {} vs {} s",
            other.report.makespan_s, run.makespans[0]
        ));
    }

    if env.tracer.enabled() {
        let rec = env.tracer.take();
        let wall = run.wall_s;
        let mut covered = 0.0;
        for stage in STAGES {
            covered += rec.total_s(stage);
            run.layer(&format!("{stage}.frac"), rec.total_s(stage) / wall);
        }
        run.layer("bench.span_coverage", covered / wall);
        run.layer("offline.makespan_over_lb", makespan_over_lb);
        run.layer(
            "sim.host_us_per_sample",
            rec.total_s("offline.execute") / run.power_samples.max(1) as f64 * 1e6,
        );
        run.recorder = rec;
    }
    run
}

/// One batch through the public runtime object, as a user runs it.
fn whole(machine: &MachineConfig, jobs: &[JobSpec], cfg: &RuntimeConfig) -> Batch {
    let t = Instant::now();
    let rt = CoScheduleRuntime::new(machine.clone(), jobs.to_vec(), cfg.clone());
    let schedule = rt.schedule_hcs_plus();
    let bound = rt.lower_bound();
    let report = rt.execute_planned(&schedule);
    let seconds = t.elapsed().as_secs_f64();
    Batch {
        seconds,
        lower_bound_s: bound.t_low_s,
        report,
        valid: rt.lint_schedule(&schedule, true).is_clean(),
    }
}

/// The same batch, stage by stage, one span per stage.
fn staged(
    machine: &MachineConfig,
    jobs: &[JobSpec],
    cfg: &RuntimeConfig,
    tracer: &Tracer,
) -> Batch {
    let cache: &Path = cfg
        .cache_dir
        .as_deref()
        .expect("the offline workload sets a cache dir");
    let t = Instant::now();
    let profiles = tracer.span("offline.profile", || {
        profile_batch(machine, jobs, cfg.profile_method)
    });
    let predictor = tracer.span("offline.characterize", || {
        StagedPredictor::new(
            machine,
            characterize_cached(machine, &cfg.characterization, cache).0,
        )
    });
    let vulnerabilities = tracer.span("offline.probe", || {
        probe_batch(machine, &predictor, jobs, &profiles)
    });
    let model = tracer.span("offline.model", || {
        build_table_model(machine, &profiles, &predictor, Some(&vulnerabilities))
    });
    let first = tracer.span("offline.hcs", || {
        hcs(&model, &HcsConfig::with_cap(cfg.cap_w))
    });
    let rc = RefineConfig {
        cap_w: cfg.cap_w,
        random_swaps: cfg.refine_random_swaps,
        cross_swaps: cfg.refine_cross_swaps,
        seed: cfg.refine_seed,
        objective: Objective::Makespan,
    };
    let schedule = tracer.span("offline.refine", || {
        refine(&model, &first.schedule, &rc).schedule
    });
    let bound = tracer.span("offline.lower_bound", || lower_bound(&model, cfg.cap_w));
    let report = tracer.span("offline.execute", || {
        execute_schedule(
            machine,
            jobs,
            &schedule,
            &mut NullGovernor,
            LevelPolicy::Planned,
            machine.freqs.min_setting(),
        )
        .expect("planned execution cannot stall")
    });
    Batch {
        seconds: t.elapsed().as_secs_f64(),
        lower_bound_s: bound.t_low_s,
        report,
        valid: schedule.is_complete_for(jobs.len()),
    }
}
