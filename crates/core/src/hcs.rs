//! The heuristic co-scheduling algorithm (HCS) of Section IV-A.
//!
//! Three steps, each with the power-cap adaptations of Section IV-A.2:
//!
//! 1. **Partition** `J` into `S_co` (jobs that can benefit from some co-run
//!    per the Co-Run Theorem, traversing all cap-feasible frequency
//!    settings) and `S_seq` (jobs that should always run alone).
//! 2. **Categorize** `S_co` into CPU-preferred, GPU-preferred and
//!    non-preferred using the execution times at the highest cap-feasible
//!    frequency and the threshold `D` (20% by default).
//! 3. **Greedy scheduling**: seed the GPU with the longest GPU-preferred
//!    job; then, whenever a device frees up, [`pick_for_device`]
//!    dispatches the candidate (taken from that device's preferred set
//!    first, then non-preferred, then the other-preferred set) with the
//!    least co-run interference against the running job — the sum of the
//!    two degradation percentages, with the job at its fastest
//!    cap-feasible level. The online policy makes the same decision.
//!    `S_seq` jobs are appended as a solo tail on their best device.

use crate::freqgrid::{
    best_solo_placement, best_solo_run, fastest_level_against, feasible_pair_settings,
};
use crate::model::{CoRunModel, JobId};
use crate::online::OnlinePick;
use crate::schedule::{Assignment, Schedule, SoloRun};
use crate::theorem::corun_beneficial;
use apu_sim::Device;
use serde::{Deserialize, Serialize};

/// Configuration of the heuristic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HcsConfig {
    /// Package power cap in watts (`f64::INFINITY` disables capping).
    pub cap_w: f64,
    /// Preference threshold `D`: jobs whose CPU/GPU times differ by no more
    /// than this fraction are non-preferred. The paper selects 20%.
    pub preference_threshold: f64,
}

impl HcsConfig {
    /// Uncapped configuration with the paper's `D = 20%`.
    pub fn uncapped() -> Self {
        HcsConfig {
            cap_w: f64::INFINITY,
            preference_threshold: 0.20,
        }
    }

    /// Capped configuration with the paper's `D = 20%`.
    pub fn with_cap(cap_w: f64) -> Self {
        HcsConfig {
            cap_w,
            preference_threshold: 0.20,
        }
    }
}

/// Processor-preference category of a job (step 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preference {
    /// Runs meaningfully faster on the CPU.
    Cpu,
    /// Runs meaningfully faster on the GPU.
    Gpu,
    /// Within the threshold on both.
    Non,
}

/// Diagnostics of an HCS run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HcsOutcome {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Jobs the Co-Run Theorem sent to sequential execution.
    pub s_seq: Vec<JobId>,
    /// Preference category per job in `S_co` (`None` for `S_seq` jobs).
    pub preference: Vec<Option<Preference>>,
}

/// Run the full heuristic.
pub fn hcs(model: &dyn CoRunModel, cfg: &HcsConfig) -> HcsOutcome {
    let n = model.len();
    if n == 0 {
        return HcsOutcome {
            schedule: Schedule::new(),
            s_seq: vec![],
            preference: vec![],
        };
    }

    // ---- Step 1: partition via the Co-Run Theorem --------------------
    let (s_co, s_seq) = partition(model, cfg);

    // ---- Step 2: categorize -------------------------------------------
    let mut preference: Vec<Option<Preference>> = vec![None; n];
    let mut cpu_pref = Vec::new();
    let mut gpu_pref = Vec::new();
    let mut non_pref = Vec::new();
    for &i in &s_co {
        let p = categorize(model, cfg, i);
        preference[i] = Some(p);
        match p {
            Preference::Cpu => cpu_pref.push(i),
            Preference::Gpu => gpu_pref.push(i),
            Preference::Non => non_pref.push(i),
        }
    }

    // ---- Step 3: greedy scheduling -------------------------------------
    let mut schedule = greedy(model, cfg, cpu_pref, gpu_pref, non_pref, &s_seq);

    // The greedy checks pair feasibility against the co-runner at dispatch
    // time, but the queue representation replays overlaps slightly
    // differently when the greedy chose to idle a device; repair any
    // remaining cap-infeasible overlap by lowering levels.
    if cfg.cap_w.is_finite() {
        repair_levels(model, &mut schedule, cfg.cap_w);
    }

    HcsOutcome {
        schedule,
        s_seq,
        preference,
    }
}

/// Lower frequency levels until the evaluator finds no cap-violating
/// segment. For each violating co-run segment the job with the smaller
/// standalone time penalty is stepped down one level (ties: the CPU job).
/// Terminates because total levels strictly decrease; a segment that still
/// violates with every participant at level 0 is left as-is (nothing lower
/// exists).
pub fn repair_levels(model: &dyn CoRunModel, schedule: &mut Schedule, cap_w: f64) {
    let budget = (schedule.len() + 1) * (model.levels(Device::Cpu) + model.levels(Device::Gpu));
    for _ in 0..budget {
        let report = crate::evaluate::evaluate(model, schedule, Some(cap_w));
        if report.cap_ok {
            return;
        }
        let Some(seg) = report
            .segments
            .iter()
            .find(|s| s.power_w > cap_w + 1e-9)
            .copied()
        else {
            return;
        };
        // Candidate level reductions with their standalone time penalties.
        let mut options: Vec<(Device, JobId, usize, f64)> = Vec::new();
        if let Some((job, level)) = seg.cpu {
            if level > 0 {
                let dt = model.standalone(job, Device::Cpu, level - 1)
                    - model.standalone(job, Device::Cpu, level);
                options.push((Device::Cpu, job, level, dt));
            }
        }
        if let Some((job, level)) = seg.gpu {
            if level > 0 {
                let dt = model.standalone(job, Device::Gpu, level - 1)
                    - model.standalone(job, Device::Gpu, level);
                options.push((Device::Gpu, job, level, dt));
            }
        }
        match options.iter().min_by(|a, b| a.3.total_cmp(&b.3)) {
            Some(&(device, job, level, _)) => set_job_level(schedule, device, job, level - 1),
            None => {
                // Both participants are already at the floor. If this is a
                // co-run, the pair simply cannot share the package under
                // the cap: demote one job to solo execution.
                match (seg.cpu, seg.gpu) {
                    (Some((job, _)), Some(_)) => {
                        schedule.cpu.retain(|a| a.job != job);
                        let level =
                            crate::freqgrid::best_solo_level(model, job, Device::Cpu, cap_w)
                                .unwrap_or(0);
                        schedule.solo_tail.push(crate::schedule::SoloRun {
                            job,
                            device: Device::Cpu,
                            level,
                        });
                    }
                    // A solo run over the cap at the floor: nothing lower
                    // exists; leave it.
                    _ => return,
                }
            }
        }
    }
}

/// Update the level of `job` wherever it appears on `device`.
fn set_job_level(schedule: &mut Schedule, device: Device, job: JobId, level: usize) {
    for a in schedule.queue_mut(device) {
        if a.job == job {
            a.level = level;
        }
    }
    for s in &mut schedule.solo_tail {
        if s.job == job && s.device == device {
            s.level = level;
        }
    }
}

/// Step 1: can job `i` benefit from a co-run with *any* other job under the
/// cap, on either placement?
pub fn partition(model: &dyn CoRunModel, cfg: &HcsConfig) -> (Vec<JobId>, Vec<JobId>) {
    let n = model.len();
    let mut benefits = vec![false; n];
    for i in 0..n {
        for j in 0..n {
            if i == j || (benefits[i] && benefits[j]) {
                continue;
            }
            if pair_can_benefit(model, cfg, i, j) {
                benefits[i] = true;
                benefits[j] = true;
            }
        }
    }
    let s_co = (0..n).filter(|&i| benefits[i]).collect();
    let s_seq = (0..n).filter(|&i| !benefits[i]).collect();
    (s_co, s_seq)
}

/// Whether placing `a` on the CPU and `b` on the GPU (or vice versa) at any
/// cap-feasible setting makes the co-run beat sequential execution.
pub fn pair_can_benefit(model: &dyn CoRunModel, cfg: &HcsConfig, a: JobId, b: JobId) -> bool {
    for (cpu_job, gpu_job) in [(a, b), (b, a)] {
        for (f, g) in feasible_pair_settings(model, cpu_job, gpu_job, cfg.cap_w) {
            let l_c = model.standalone(cpu_job, Device::Cpu, f);
            let d_c = model.degradation(cpu_job, Device::Cpu, f, gpu_job, g);
            let l_g = model.standalone(gpu_job, Device::Gpu, g);
            let d_g = model.degradation(gpu_job, Device::Gpu, g, cpu_job, f);
            if corun_beneficial(l_c, d_c, l_g, d_g) {
                return true;
            }
        }
    }
    false
}

/// Step 2: preference of one job using times at the highest cap-feasible
/// frequency on each device (a device where the job cannot run under the
/// cap at all counts as infinitely slow).
pub fn categorize(model: &dyn CoRunModel, cfg: &HcsConfig, i: JobId) -> Preference {
    let t_cpu = best_solo_run(model, i, Device::Cpu, cfg.cap_w).map_or(f64::INFINITY, |(_, t)| t);
    let t_gpu = best_solo_run(model, i, Device::Gpu, cfg.cap_w).map_or(f64::INFINITY, |(_, t)| t);
    let lo = t_cpu.min(t_gpu);
    let hi = t_cpu.max(t_gpu);
    if !lo.is_finite() {
        return Preference::Non; // nowhere to run well; degenerate
    }
    if (hi - lo) / lo <= cfg.preference_threshold {
        Preference::Non
    } else if t_cpu < t_gpu {
        Preference::Cpu
    } else {
        Preference::Gpu
    }
}

/// The per-device decision of Step 3, shared by the offline greedy and
/// [`crate::OnlinePolicy::pick`]: what to start on the free `device`,
/// given the candidates in `device`'s preference order (`tiers`: its own
/// preferred set, the non-preferred set, the other device's preferred
/// set) and the co-runner on the other device as `(job, level,
/// remaining_s)`. `None` leaves the device idle.
///
/// The first tier with a cap-feasible candidate decides. Within it, only
/// the first job of each [`CoRunModel::class`] is evaluated: later jobs
/// of a class tie with it, and ties go to the earliest. With no
/// co-runner the longest job is taken, at its best solo level. With one,
/// the least co-run interference is taken, the sum of the two
/// degradations, with the job at [`fastest_level_against`].
///
/// A job from the other device's preferred set is stolen only when
/// running it here beats waiting for its preferred device: the pick is
/// declined when its time here is at least the rest of that tier's time
/// there plus `remaining_s` plus its own time there, all at the other
/// device's top level.
pub fn pick_for_device(
    model: &dyn CoRunModel,
    tiers: [&[JobId]; 3],
    device: Device,
    cap_w: f64,
    co: Option<(JobId, usize, f64)>,
) -> Option<OnlinePick> {
    let mut seen: Vec<bool> = Vec::new();
    for (tier, jobs) in tiers.into_iter().enumerate() {
        let mut heads = Vec::new();
        for &j in jobs {
            let class = model.class(j);
            if class >= seen.len() {
                seen.resize(class + 1, false);
            }
            if !std::mem::replace(&mut seen[class], true) {
                heads.push(j);
            }
        }
        // (job, level, score): the lowest score wins, the earliest on ties.
        let mut best: Option<(JobId, usize, f64)> = None;
        for &j in &heads {
            let scored = match co {
                // Longest first: score the negated solo time.
                None => best_solo_run(model, j, device, cap_w).map(|(f, t)| (f, -t)),
                Some((co_job, co_level, _)) => {
                    fastest_level_against(model, j, device, co_job, co_level, cap_w).map(|f| {
                        let d_own = model.degradation(j, device, f, co_job, co_level);
                        let d_co = model.degradation(co_job, device.other(), co_level, j, f);
                        (f, d_own + d_co)
                    })
                }
            };
            let Some((level, score)) = scored else {
                continue;
            };
            if best.is_none_or(|(_, _, bs)| score < bs) {
                best = Some((j, level, score));
            }
        }
        let Some((job, level, _)) = best else {
            continue;
        };
        if tier == 2 {
            let other = device.other();
            let top = model.levels(other) - 1;
            let t_here = model.standalone(job, device, level);
            let t_there = model.standalone(job, other, top);
            // Each class's time there, evaluated once, summed per job in
            // tier order.
            let mut there = vec![0.0; seen.len()];
            for &h in &heads {
                there[model.class(h)] = model.standalone(h, other, top);
            }
            let backlog: f64 = (jobs.iter())
                .filter(|&&y| y != job)
                .map(|&y| there[model.class(y)])
                .sum();
            let remaining_s = co.map_or(0.0, |(_, _, r)| r);
            if t_here >= backlog + remaining_s + t_there {
                return None;
            }
        }
        return Some(OnlinePick { job, level });
    }
    None
}

/// `sets` (CPU-preferred, non-preferred, GPU-preferred) as `device`'s
/// tiers: its own preferred set, the non-preferred set, the other's.
fn tiers(sets: &[Vec<JobId>; 3], device: Device) -> [&[JobId]; 3] {
    let [cpu, non, gpu] = sets.each_ref().map(Vec::as_slice);
    match device {
        Device::Cpu => [cpu, non, gpu],
        Device::Gpu => [gpu, non, cpu],
    }
}

/// The running job per device: `(job, level, remaining standalone s)`.
type Running = [Option<(JobId, usize, f64)>; 2];

/// Take `pick` out of `sets` and start it on `device`.
fn start(
    model: &dyn CoRunModel,
    sets: &mut [Vec<JobId>; 3],
    running: &mut Running,
    schedule: &mut Schedule,
    device: Device,
    pick: OnlinePick,
) {
    let OnlinePick { job, level } = pick;
    for set in sets.iter_mut() {
        set.retain(|&j| j != job);
    }
    running[device.index()] = Some((job, level, model.standalone(job, device, level)));
    schedule.queue_mut(device).push(Assignment { job, level });
}

/// Step 3 proper: the model-time event loop around [`pick_for_device`],
/// plus the batch-only seeding and the `S_seq` solo tail.
fn greedy(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    cpu_pref: Vec<JobId>,
    gpu_pref: Vec<JobId>,
    non_pref: Vec<JobId>,
    s_seq: &[JobId],
) -> Schedule {
    let mut schedule = Schedule::new();
    let mut sets = [cpu_pref, non_pref, gpu_pref];
    let mut running: Running = [None, None];
    let mut seq_fallback: Vec<JobId> = Vec::new();

    // Seeding takes the longest job in preference order, with no steal
    // guard: the other device's preferred set is a tier of its own.
    let seed = |sets: &[Vec<JobId>; 3], device: Device| {
        let [own, non, other] = tiers(sets, device);
        pick_for_device(model, [own, non, &[]], device, cfg.cap_w, None)
            .or_else(|| pick_for_device(model, [other, &[], &[]], device, cfg.cap_w, None))
    };
    if let Some(gpu) = seed(&sets, Device::Gpu) {
        start(
            model,
            &mut sets,
            &mut running,
            &mut schedule,
            Device::Gpu,
            gpu,
        );
        // Fill the CPU with the least-interference candidate, choosing the
        // pair's levels jointly: this re-levels the seeded job before any
        // time has elapsed.
        if let Some((cpu, g)) = pick_least_interference_joint(model, cfg, &sets, gpu.job) {
            start(
                model,
                &mut sets,
                &mut running,
                &mut schedule,
                Device::Cpu,
                cpu,
            );
            schedule.gpu[0].level = g;
            running[Device::Gpu.index()] =
                Some((gpu.job, g, model.standalone(gpu.job, Device::Gpu, g)));
        }
    } else if let Some(cpu) = seed(&sets, Device::Cpu) {
        // No GPU candidate at all: seed the CPU instead.
        start(
            model,
            &mut sets,
            &mut running,
            &mut schedule,
            Device::Cpu,
            cpu,
        );
    }

    // Event loop: advance to the next completion, refill the freed device.
    loop {
        match (running[0], running[1]) {
            (None, None) => break,
            (Some((cj, cl, cr)), Some((gj, gl, gr))) => {
                let s_c = 1.0 + model.degradation(cj, Device::Cpu, cl, gj, gl);
                let s_g = 1.0 + model.degradation(gj, Device::Gpu, gl, cj, cl);
                let t_c = cr * s_c;
                let t_g = gr * s_g;
                let dt = t_c.min(t_g);
                let nc = cr - dt / s_c;
                let ng = gr - dt / s_g;
                running[0] = (nc > 1e-9).then_some((cj, cl, nc));
                running[1] = (ng > 1e-9).then_some((gj, gl, ng));
            }
            (Some(_), None) | (None, Some(_)) => {
                // Lone job: nothing else can change state before it ends.
                running = [None, None];
            }
        }

        // Refill free devices in two passes: first from each device's own
        // preferred and the non-preferred sets, then, only if still free,
        // with the other device's preferred set too.
        for own_only in [true, false] {
            for device in Device::ALL {
                if running[device.index()].is_some() {
                    continue;
                }
                let [own, non, other] = tiers(&sets, device);
                let other = if own_only { &[] } else { other };
                let co = running[device.other().index()];
                if let Some(pick) = pick_for_device(model, [own, non, other], device, cfg.cap_w, co)
                {
                    start(model, &mut sets, &mut running, &mut schedule, device, pick);
                }
            }
        }

        if running.iter().all(Option::is_none) {
            // Candidates left that none could be dispatched (no feasible
            // level even alone) go to the solo fallback.
            for set in &mut sets {
                seq_fallback.append(set);
            }
            break;
        }
    }

    // Solo tail: S_seq jobs (and any fallback) on their best device.
    for &job in s_seq.iter().chain(seq_fallback.iter()) {
        if let Some((device, level, _)) = best_solo_placement(model, job, cfg.cap_w) {
            schedule.solo_tail.push(SoloRun { job, device, level });
        } else {
            // Nothing fits the cap even at the floor: run at the floor on
            // the faster device; the runtime governor will do what it can.
            let device =
                if model.standalone(job, Device::Cpu, 0) <= model.standalone(job, Device::Gpu, 0) {
                    Device::Cpu
                } else {
                    Device::Gpu
                };
            schedule.solo_tail.push(SoloRun {
                job,
                device,
                level: 0,
            });
        }
    }

    schedule
}

/// The first CPU dispatch, where the seeded GPU job's level is still
/// free: per candidate in the CPU's tier order, jointly traverse the
/// feasible `(f, g)` grid for the levels minimizing the pair's
/// conservative makespan, then rank candidates by interference as
/// [`pick_for_device`] does. Returns the pick plus the GPU level.
fn pick_least_interference_joint(
    model: &dyn CoRunModel,
    cfg: &HcsConfig,
    sets: &[Vec<JobId>; 3],
    gpu_job: JobId,
) -> Option<(OnlinePick, usize)> {
    for candidates in tiers(sets, Device::Cpu) {
        let mut best: Option<(JobId, usize, usize, f64)> = None; // (job, f, g, deg sum)
        for &job in candidates {
            let mut local: Option<(usize, usize, f64, f64)> = None; // (f, g, span, sum)
            for (f, g) in feasible_pair_settings(model, job, gpu_job, cfg.cap_w) {
                let d_c = model.degradation(job, Device::Cpu, f, gpu_job, g);
                let d_g = model.degradation(gpu_job, Device::Gpu, g, job, f);
                let t_c = model.standalone(job, Device::Cpu, f) * (1.0 + d_c);
                let t_g = model.standalone(gpu_job, Device::Gpu, g) * (1.0 + d_g);
                let span = t_c.max(t_g);
                if local.is_none_or(|(_, _, bsp, _)| span < bsp - 1e-12) {
                    local = Some((f, g, span, d_c + d_g));
                }
            }
            if let Some((f, g, _, sum)) = local {
                if best.is_none_or(|(_, _, _, bs)| sum < bs) {
                    best = Some((job, f, g, sum));
                }
            }
        }
        if let Some((job, level, g, _)) = best {
            return Some((OnlinePick { job, level }, g));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::model::test_model::synthetic;
    use crate::model::TableModel;
    use crate::refine::RefineConfig;

    #[test]
    fn empty_batch() {
        let m = synthetic(0, 4, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert!(out.schedule.is_empty());
    }

    #[test]
    fn single_job_runs_somewhere() {
        let m = synthetic(1, 4, 4);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert!(out.schedule.is_complete_for(1));
    }

    #[test]
    fn schedule_is_complete_permutation() {
        for n in [2, 4, 7, 10] {
            let m = synthetic(n, 6, 5);
            let out = hcs(&m, &HcsConfig::uncapped());
            assert!(out.schedule.is_complete_for(n), "n={n}: {}", out.schedule);
        }
    }

    #[test]
    fn capped_schedule_respects_cap_in_model() {
        let m = synthetic(8, 6, 5);
        let cap = 16.0;
        let out = hcs(&m, &HcsConfig::with_cap(cap));
        assert!(out.schedule.is_complete_for(8));
        let r = evaluate(&m, &out.schedule, Some(cap));
        assert!(r.cap_ok, "peak {} over cap {cap}", r.peak_power_w);
    }

    #[test]
    fn hostile_jobs_go_to_sequential() {
        // Degradations of 90% on 2 equal jobs: l*d = 0.9l > l? No: 0.9l < l,
        // still beneficial. Make degradation 120% so l*d > l.
        let m = TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 1.2,
            |_i, _d, _f| 5.0,
        );
        let (s_co, s_seq) = partition(&m, &HcsConfig::uncapped());
        assert!(s_co.is_empty());
        assert_eq!(s_seq, vec![0, 1]);
        let out = hcs(&m, &HcsConfig::uncapped());
        assert_eq!(out.schedule.solo_tail.len(), 2);
        assert!(out.schedule.cpu.is_empty() && out.schedule.gpu.is_empty());
    }

    #[test]
    fn friendly_jobs_corun() {
        let m = TableModel::build(
            vec!["a".into(), "b".into()],
            2,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |_i, _d, _f, _j, _g| 0.05,
            |_i, _d, _f| 5.0,
        );
        let out = hcs(&m, &HcsConfig::uncapped());
        assert_eq!(out.schedule.solo_tail.len(), 0);
        assert_eq!(out.schedule.cpu.len() + out.schedule.gpu.len(), 2);
        assert!(out.s_seq.is_empty());
    }

    #[test]
    fn categorize_uses_threshold() {
        // CPU time 10, GPU time 11.5: 15% apart -> Non at D=0.2, Cpu at D=0.1.
        let m = TableModel::build(
            vec!["a".into()],
            2,
            2,
            4.0,
            |_i, d, _f| match d {
                Device::Cpu => 10.0,
                Device::Gpu => 11.5,
            },
            |_i, _d, _f, _j, _g| 0.1,
            |_i, _d, _f| 5.0,
        );
        let mut cfg = HcsConfig::uncapped();
        assert_eq!(categorize(&m, &cfg, 0), Preference::Non);
        cfg.preference_threshold = 0.10;
        assert_eq!(categorize(&m, &cfg, 0), Preference::Cpu);
    }

    #[test]
    fn hcs_beats_naive_all_on_one_device() {
        let m = synthetic(8, 6, 5);
        let out = hcs(&m, &HcsConfig::uncapped());
        let hcs_span = evaluate(&m, &out.schedule, None).makespan_s;
        // Naive: everything on the GPU at max level, sequentially.
        let mut naive = Schedule::new();
        for i in 0..8 {
            naive.gpu.push(Assignment { job: i, level: 4 });
        }
        let naive_span = evaluate(&m, &naive, None).makespan_s;
        assert!(
            hcs_span < naive_span * 0.8,
            "hcs {hcs_span} vs single-device {naive_span}"
        );
    }

    #[test]
    fn tighter_cap_does_not_break_completeness() {
        let m = synthetic(6, 6, 5);
        for cap in [30.0, 18.0, 14.0, 10.0, 7.0] {
            let out = hcs(&m, &HcsConfig::with_cap(cap));
            assert!(out.schedule.is_complete_for(6), "cap {cap}");
        }
    }

    #[test]
    fn tighter_cap_never_speeds_up_schedule() {
        let m = synthetic(8, 6, 5);
        let loose = evaluate(&m, &hcs(&m, &HcsConfig::with_cap(25.0)).schedule, None).makespan_s;
        let tight = evaluate(&m, &hcs(&m, &HcsConfig::with_cap(11.0)).schedule, None).makespan_s;
        assert!(
            tight >= loose * 0.98,
            "tight cap {tight} should not beat loose cap {loose}"
        );
    }

    /// FNV-1a over a schedule's rendering: each queue's `(job, level)`
    /// in order, then the solo tail.
    fn digest(schedule: &Schedule) -> u64 {
        (schedule.to_string().bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// HCS and HCS+ on synthetic batches of 8 and 12 jobs at 11, 16 and
    /// 25 W must reproduce the schedules pinned here; a change that moves
    /// one must re-pin it on purpose.
    #[test]
    fn schedules_match_their_pinned_digests() {
        let mut got = Vec::new();
        for n in [8, 12] {
            let m = synthetic(n, 6, 5);
            for cap in [11.0, 16.0, 25.0] {
                let out = hcs(&m, &HcsConfig::with_cap(cap));
                let plus = crate::refine::refine(&m, &out.schedule, &RefineConfig::new(cap));
                got.push((digest(&out.schedule), digest(&plus.schedule)));
            }
        }
        assert_eq!(
            got,
            [
                (0xd0d235f42bdec563, 0x1ad73f6bfea6af5c),
                (0x5a5ab9d78a72a949, 0x9088fb75b230d909),
                (0x97986c6d07a43268, 0xe2c4919c90dd4bd5),
                (0x653098a8d7d85a10, 0x3ab605b13a883cfd),
                (0x33376ccf018a9903, 0xab85f332a82f24b6),
                (0xc62dc716c66b1dd6, 0xc121d2aae4183278),
            ]
        );
    }

    #[test]
    fn preference_respected_in_placement() {
        // Two strongly CPU-preferred and two strongly GPU-preferred jobs
        // with mild interference: HCS must place them accordingly.
        let m = TableModel::build(
            vec!["c0".into(), "c1".into(), "g0".into(), "g1".into()],
            3,
            3,
            4.0,
            |i, d, f| {
                let fast = 10.0 / (0.5 + 0.5 * f as f64 / 2.0);
                let slow = 30.0 / (0.5 + 0.5 * f as f64 / 2.0);
                match (i < 2, d) {
                    (true, Device::Cpu) => fast,
                    (true, Device::Gpu) => slow,
                    (false, Device::Cpu) => slow,
                    (false, Device::Gpu) => fast,
                }
            },
            |_i, _d, _f, _j, _g| 0.08,
            |_i, _d, _f| 5.0,
        );
        let out = hcs(&m, &HcsConfig::uncapped());
        let cpu_jobs: Vec<JobId> = out.schedule.cpu.iter().map(|a| a.job).collect();
        let gpu_jobs: Vec<JobId> = out.schedule.gpu.iter().map(|a| a.job).collect();
        assert!(
            cpu_jobs.contains(&0) && cpu_jobs.contains(&1),
            "{}",
            out.schedule
        );
        assert!(
            gpu_jobs.contains(&2) && gpu_jobs.contains(&3),
            "{}",
            out.schedule
        );
    }
}
