//! A co-run model that grows one job at a time — the model a resident
//! scheduling service needs.
//!
//! [`crate::modelbuild::build_table_model`] materializes a dense
//! [`corun_core::TableModel`] over a *fixed* batch, which is the right
//! shape for offline scheduling but useless for a daemon whose job
//! universe grows with every submission: appending to the dense layout
//! means an `O(N^2 K^2)` rebuild per arrival. [`IncrementalModel`] keeps
//! the standalone ladders dense (they are `O(K)` per program) and
//! computes pair degradations on demand from the same
//! [`StagedPredictor`] interpolation `build_table_model` bakes in — and
//! both models return bit-identical numbers for the same inputs.
//!
//! Jobs are interned into *classes* ([`CoRunModel::class`]): a class is
//! one program, a job spec with its name left out, keyed by the digest
//! the offline class cache uses. Profiling (and the LLC probe, when on)
//! runs once per class, when its first job arrives, as the paper profiles
//! each program once. A later job of a class costs a digest and a
//! comparison, and keeps only its class and its own name. Unlike the
//! offline cache, the class table never evicts: every admitted job always
//! names a class.

use crate::cache::spec_digest;
use apu_sim::{Device, FreqSetting, JobSpec, MachineConfig};
use corun_core::{CoRunModel, JobId};
use perf_model::{
    idle_package_power, measure_llc_vulnerability, profile_job, JobProfile, LlcVulnerability,
    ProfileMethod, StagedPredictor,
};
use std::collections::HashMap;
use std::sync::Arc;

/// A growable scheduler-facing co-run model (see module docs).
pub struct IncrementalModel {
    machine: MachineConfig,
    predictor: StagedPredictor,
    profile_method: ProfileMethod,
    llc_probe: bool,
    idle_power_w: f64,
    /// Per job, indexed by [`JobId`].
    jobs: Vec<Member>,
    /// Per class, in order of first appearance.
    classes: Vec<Class>,
    /// [`spec_digest`] to the class first admitted under it.
    index: HashMap<u64, usize>,
}

/// What a job holds of its own.
struct Member {
    class: usize,
    name: String,
}

/// What every job of one program shares.
struct Class {
    /// The spec with its name blanked. A job joins the class only if its
    /// spec, name aside, equals this one, so two programs whose digests
    /// collide never share a class.
    spec: JobSpec,
    /// The standalone profile, name blanked.
    profile: JobProfile,
    /// The LLC vulnerability, when the probe is on.
    vulnerability: Option<LlcVulnerability>,
}

impl IncrementalModel {
    /// New empty model over `machine` using `predictor` for pair
    /// degradations. `llc_probe` enables the per-class LLC-vulnerability
    /// probe on admission (more accurate, but each probe costs a handful
    /// of co-run simulations).
    pub fn new(
        machine: MachineConfig,
        predictor: StagedPredictor,
        profile_method: ProfileMethod,
        llc_probe: bool,
    ) -> Self {
        let idle_power_w = idle_package_power(&machine);
        IncrementalModel {
            machine,
            predictor,
            profile_method,
            llc_probe,
            idle_power_w,
            jobs: Vec::new(),
            classes: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Append `job` to the model, profiling (and probing, if enabled) it
    /// only when its class is new. Returns its [`JobId`].
    pub fn push_job(&mut self, job: &JobSpec) -> JobId {
        let digest = spec_digest(job);
        let spec = JobSpec {
            name: String::new(),
            ..job.clone()
        };
        let class = match self.index.get(&digest).copied() {
            Some(class) if self.classes[class].spec == spec => class,
            indexed => {
                let profile = profile_job(&self.machine, job, self.profile_method);
                let vulnerability = self.llc_probe.then(|| {
                    measure_llc_vulnerability(&self.machine, &self.predictor, job, &profile)
                });
                let class = self.classes.len();
                if indexed.is_none() {
                    self.index.insert(digest, class);
                }
                self.classes.push(Class {
                    spec,
                    profile: JobProfile {
                        name: String::new(),
                        ..profile
                    },
                    vulnerability,
                });
                class
            }
        };
        self.jobs.push(Member {
            class,
            name: job.name.clone(),
        });
        self.jobs.len() - 1
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The spec of job `i`, under its own name.
    pub fn job(&self, i: JobId) -> Arc<JobSpec> {
        let member = &self.jobs[i];
        Arc::new(JobSpec {
            name: member.name.clone(),
            ..self.classes[member.class].spec.clone()
        })
    }

    /// The standalone profile of job `i`'s class; its name is blank.
    pub fn profile(&self, i: JobId) -> &JobProfile {
        &self.class_of(i).profile
    }

    /// Number of distinct classes admitted.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    fn class_of(&self, i: JobId) -> &Class {
        &self.classes[self.jobs[i].class]
    }
}

impl CoRunModel for IncrementalModel {
    fn len(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self, i: JobId) -> &str {
        &self.jobs[i].name
    }

    fn class(&self, i: JobId) -> usize {
        self.jobs[i].class
    }

    fn levels(&self, device: Device) -> usize {
        match device {
            Device::Cpu => self.machine.freqs.cpu.len(),
            Device::Gpu => self.machine.freqs.gpu.len(),
        }
    }

    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.class_of(i).profile.time(device, f)
    }

    fn degradation(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64 {
        // What `build_table_model` tabulates: same predictor, same LLC
        // correction, evaluated lazily per entry.
        let setting = match device {
            Device::Cpu => FreqSetting::new(f_own, g_other),
            Device::Gpu => FreqSetting::new(g_other, f_own),
        };
        let cpu_ghz = self.machine.freqs.ghz(Device::Cpu, setting);
        let gpu_ghz = self.machine.freqs.ghz(Device::Gpu, setting);
        let victim = self.class_of(i);
        let own = victim.profile.demand(device, f_own);
        let co = self.class_of(j).profile.demand(device.other(), g_other);
        let base = self
            .predictor
            .degradation_at(device, own, co, cpu_ghz, gpu_ghz);
        let extra = victim
            .vulnerability
            .as_ref()
            .map_or(0.0, |v| v.extra_degradation(device, co));
        base + extra
    }

    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.class_of(i).profile.power(device, f)
    }

    fn idle_power(&self) -> f64 {
        self.idle_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modelbuild::build_table_model;
    use apu_sim::PerDevice;
    use corun_core::{best_level_against, fastest_level_against, HcsConfig, OnlinePolicy};
    use perf_model::{characterize, probe_batch, profile_batch, CharacterizeConfig};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeSet;

    fn setup() -> (MachineConfig, StagedPredictor, Vec<JobSpec>) {
        let cfg = MachineConfig::ivy_bridge();
        let jobs: Vec<JobSpec> = kernels::rodinia8(&cfg)
            .jobs
            .iter()
            .take(4)
            .map(|j| kernels::with_input_scale(j, 0.15))
            .collect();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 3;
        ccfg.micro_duration_s = 1.0;
        let predictor = StagedPredictor::new(&cfg, characterize(&cfg, &ccfg));
        (cfg, predictor, jobs)
    }

    #[test]
    fn matches_dense_table_model_exactly() {
        let (cfg, predictor, jobs) = setup();
        let profiles = profile_batch(&cfg, &jobs, ProfileMethod::Analytic);
        let dense = build_table_model(&cfg, &profiles, &predictor, None);

        let mut inc = IncrementalModel::new(cfg.clone(), predictor, ProfileMethod::Analytic, false);
        for job in &jobs {
            inc.push_job(job);
        }

        assert_eq!(inc.len(), dense.len());
        for d in Device::ALL {
            assert_eq!(inc.levels(d), dense.levels(d));
        }
        assert_eq!(inc.idle_power(), dense.idle_power());
        let kc = inc.levels(Device::Cpu);
        let kg = inc.levels(Device::Gpu);
        for i in 0..inc.len() {
            assert_eq!(inc.name(i), dense.name(i));
            for f in [0, kc / 2, kc - 1] {
                assert_eq!(
                    inc.standalone(i, Device::Cpu, f),
                    dense.standalone(i, Device::Cpu, f)
                );
                assert_eq!(
                    inc.solo_power(i, Device::Cpu, f),
                    dense.solo_power(i, Device::Cpu, f)
                );
            }
            for g in [0, kg / 2, kg - 1] {
                assert_eq!(
                    inc.standalone(i, Device::Gpu, g),
                    dense.standalone(i, Device::Gpu, g)
                );
                assert_eq!(
                    inc.solo_power(i, Device::Gpu, g),
                    dense.solo_power(i, Device::Gpu, g)
                );
            }
            for j in 0..inc.len() {
                for f in [0, kc - 1] {
                    for g in [0, kg - 1] {
                        assert_eq!(
                            inc.degradation(i, Device::Cpu, f, j, g),
                            dense.degradation(i, Device::Cpu, f, j, g),
                            "cpu deg mismatch at ({i},{f},{j},{g})"
                        );
                        assert_eq!(
                            inc.degradation(i, Device::Gpu, g, j, f),
                            dense.degradation(i, Device::Gpu, g, j, f),
                            "gpu deg mismatch at ({i},{g},{j},{f})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn llc_probe_matches_probed_dense_model() {
        let (cfg, predictor, jobs) = setup();
        let jobs = &jobs[..2];
        let profiles = profile_batch(&cfg, jobs, ProfileMethod::Analytic);
        let vulns = probe_batch(&cfg, &predictor, jobs, &profiles);
        let dense = build_table_model(&cfg, &profiles, &predictor, Some(&vulns));

        let mut inc = IncrementalModel::new(cfg.clone(), predictor, ProfileMethod::Analytic, true);
        for job in jobs {
            inc.push_job(job);
        }
        let kc = inc.levels(Device::Cpu) - 1;
        let kg = inc.levels(Device::Gpu) - 1;
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(
                    inc.degradation(i, Device::Cpu, kc, j, kg),
                    dense.degradation(i, Device::Cpu, kc, j, kg)
                );
                assert_eq!(
                    inc.degradation(i, Device::Gpu, kg, j, kc),
                    dense.degradation(i, Device::Gpu, kg, j, kc)
                );
            }
        }
    }

    /// The hoisted dense build against the per-entry path, on every entry
    /// of a `rodinia16` batch: each program at two scales, one repeated
    /// under another name, and one with its traffic removed, so that the
    /// demands fall below, inside and beyond every surface axis.
    #[test]
    fn hoisted_table_matches_per_entry_on_rodinia16() {
        let (cfg, predictor, _) = setup();
        let mut jobs = kernels::rodinia16(&cfg, 3).jobs;
        let mut again = jobs[0].clone();
        again.name.push_str("-again");
        let mut no_traffic = jobs[2].clone();
        no_traffic.name.push_str("-no-traffic");
        for phase in &mut no_traffic.phases {
            phase.bytes = 0.0;
        }
        let mut streaming = jobs[4].clone();
        streaming.name.push_str("-streaming");
        for phase in &mut streaming.phases {
            phase.flops = 0.0;
        }
        jobs.extend([again, no_traffic, streaming]);
        let profiles = profile_batch(&cfg, &jobs, ProfileMethod::Analytic);
        let vulns = probe_batch(&cfg, &predictor, &jobs, &profiles);
        let dense = build_table_model(&cfg, &profiles, &predictor, Some(&vulns));

        let levels = PerDevice::new(cfg.freqs.cpu.len(), cfg.freqs.gpu.len());
        // Every surface axis gets demands at its low end and inside it. A
        // solo demand never exceeds the device's peak bandwidth, where the
        // top stage's axes end, so the high end is reached on the lower
        // stages' axes, on both sides.
        let mut beyond = PerDevice::new(false, false);
        for stage in predictor.stages() {
            for grid in [&stage.surface.deg.cpu, &stage.surface.deg.gpu] {
                for (side, axis) in [(Device::Cpu, &grid.cpu_axis), (Device::Gpu, &grid.gpu_axis)] {
                    let (lo, hi) = (axis[0], axis[axis.len() - 1]);
                    let demands: Vec<f64> = (profiles.iter())
                        .flat_map(|p| (0..*levels.get(side)).map(move |l| p.demand(side, l)))
                        .collect();
                    assert!(demands.iter().any(|&d| d <= lo), "none at or below {lo}");
                    assert!(demands.iter().any(|&d| d > lo && d < hi), "none inside");
                    *beyond.get_mut(side) |= demands.iter().any(|&d| d >= hi);
                }
            }
        }
        assert!(
            beyond.cpu && beyond.gpu,
            "no demand beyond an axis: {beyond:?}"
        );

        let mut inc = IncrementalModel::new(cfg.clone(), predictor, ProfileMethod::Analytic, true);
        for job in &jobs {
            inc.push_job(job);
        }
        assert_degradations_match(&inc, &dense);
    }

    /// Every degradation entry of `inc` against `dense`, bit for bit.
    fn assert_degradations_match(inc: &IncrementalModel, dense: &dyn CoRunModel) {
        assert_eq!(inc.len(), dense.len());
        let (kc, kg) = (inc.levels(Device::Cpu), inc.levels(Device::Gpu));
        for i in 0..inc.len() {
            for j in 0..inc.len() {
                for f in 0..kc {
                    for g in 0..kg {
                        assert_eq!(
                            inc.degradation(i, Device::Cpu, f, j, g).to_bits(),
                            dense.degradation(i, Device::Cpu, f, j, g).to_bits(),
                            "cpu deg mismatch at ({i},{f},{j},{g})"
                        );
                        assert_eq!(
                            inc.degradation(i, Device::Gpu, g, j, f).to_bits(),
                            dense.degradation(i, Device::Gpu, g, j, f).to_bits(),
                            "gpu deg mismatch at ({i},{g},{j},{f})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_renamed_spec_shares_its_class_and_keeps_its_name() {
        let (cfg, predictor, jobs) = setup();
        let a = jobs[0].clone();
        let b = JobSpec {
            name: format!("{}-again", a.name),
            ..a.clone()
        };
        let mut inc = IncrementalModel::new(
            cfg.clone(),
            predictor.clone(),
            ProfileMethod::Analytic,
            true,
        );
        let (i, j) = (inc.push_job(&a), inc.push_job(&b));
        assert_eq!(inc.class_count(), 1);
        assert_eq!(inc.class(i), inc.class(j));
        assert_eq!((inc.name(i), inc.name(j)), (&*a.name, &*b.name));
        assert_eq!((&*inc.job(i), &*inc.job(j)), (&a, &b));

        // Measured on its own, the renamed spec profiles and probes to
        // the same bits as the class it joined.
        let profiles = profile_batch(&cfg, &[a.clone(), b.clone()], ProfileMethod::Analytic);
        let vulns = probe_batch(&cfg, &predictor, &[a, b], &profiles);
        let blank = |p: &JobProfile| {
            format!(
                "{:?}",
                JobProfile {
                    name: String::new(),
                    ..p.clone()
                }
            )
        };
        assert_eq!(blank(&profiles[0]), blank(&profiles[1]));
        assert_eq!(blank(&profiles[1]), format!("{:?}", inc.profile(j)));
        assert_eq!(format!("{:?}", vulns[0]), format!("{:?}", vulns[1]));
        let dense = build_table_model(&cfg, &profiles, &predictor, Some(&vulns));
        assert_degradations_match(&inc, &dense);
        assert_eq!(inc.name(j), dense.name(j));
    }

    /// A `rodinia16` batch with half its jobs submitted twice under new
    /// names: 24 jobs, 16 classes, and the same degradations as the
    /// per-job model that profiles and probes every job.
    #[test]
    fn llc_probe_with_repeated_programs_matches_the_per_job_model() {
        let (cfg, predictor, _) = setup();
        let mut jobs = kernels::rodinia16(&cfg, 5).jobs;
        let repeats: Vec<JobSpec> = (jobs.iter().step_by(2))
            .map(|job| JobSpec {
                name: format!("{}-again", job.name),
                ..job.clone()
            })
            .collect();
        jobs.extend(repeats);
        let profiles = profile_batch(&cfg, &jobs, ProfileMethod::Analytic);
        let vulns = probe_batch(&cfg, &predictor, &jobs, &profiles);
        let dense = build_table_model(&cfg, &profiles, &predictor, Some(&vulns));

        let mut inc = IncrementalModel::new(cfg, predictor, ProfileMethod::Analytic, true);
        for job in &jobs {
            inc.push_job(job);
        }
        assert_eq!(inc.class_count(), 16);
        for (id, job) in jobs.iter().enumerate() {
            assert_eq!(inc.name(id), job.name);
            assert_eq!(inc.job(id).name, job.name);
        }
        assert_degradations_match(&inc, &dense);
    }

    /// Counts the evaluations a model answers and the jobs they name.
    struct Counting<'a> {
        inner: &'a dyn CoRunModel,
        evaluations: Cell<usize>,
        asked: RefCell<BTreeSet<JobId>>,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a dyn CoRunModel) -> Self {
            Counting {
                inner,
                evaluations: Cell::new(0),
                asked: RefCell::new(BTreeSet::new()),
            }
        }

        fn note(&self, i: JobId) {
            self.evaluations.set(self.evaluations.get() + 1);
            self.asked.borrow_mut().insert(i);
        }

        /// Evaluations and distinct jobs asked about since the last take.
        fn take(&self) -> (usize, usize) {
            (self.evaluations.take(), self.asked.take().len())
        }
    }

    impl CoRunModel for Counting<'_> {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn name(&self, i: JobId) -> &str {
            self.inner.name(i)
        }
        fn class(&self, i: JobId) -> usize {
            self.inner.class(i)
        }
        fn levels(&self, device: Device) -> usize {
            self.inner.levels(device)
        }
        fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
            self.note(i);
            self.inner.standalone(i, device, f)
        }
        fn degradation(&self, i: JobId, device: Device, f: usize, j: JobId, g: usize) -> f64 {
            self.note(i);
            self.inner.degradation(i, device, f, j, g)
        }
        fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
            self.note(i);
            self.inner.solo_power(i, device, f)
        }
        fn idle_power(&self) -> f64 {
            self.inner.idle_power()
        }
    }

    /// Three programs, 1k and then 50k jobs: a cap change categorizes
    /// once per class, and a pick over every queued job costs the same
    /// model evaluations at both sizes.
    #[test]
    fn cap_changes_and_picks_cost_the_same_at_any_history() {
        let (cfg, predictor, _) = setup();
        let programs: Vec<JobSpec> = (kernels::rodinia8(&cfg).jobs.iter().take(3))
            .map(|j| kernels::with_input_scale(j, 0.05))
            .collect();
        let (kc, kg) = (cfg.freqs.cpu.len(), cfg.freqs.gpu.len());
        let mut inc = IncrementalModel::new(cfg, predictor, ProfileMethod::Analytic, false);
        let mut policy = OnlinePolicy::empty(HcsConfig::with_cap(15.0));
        let mut runs = Vec::new();
        for size in [1_000, 50_000] {
            while inc.len() < size {
                let k = inc.len();
                let job = JobSpec {
                    name: format!("{}@{k}", programs[k % 3].name),
                    ..programs[k % 3].clone()
                };
                let id = inc.push_job(&job);
                policy.admit_job(&inc, id);
            }
            assert_eq!((inc.class_count(), policy.preferences().len()), (3, 3));
            let counting = Counting::new(&inc);
            // Every job but the co-runners, then each class's jobs alone,
            // so the other-preferred path and its steal guard run too.
            let mut readies: Vec<Vec<JobId>> = vec![(3..size).collect()];
            readies.extend((0..3).map(|c| (3..size).filter(|j| j % 3 == c).collect()));
            let mut run = Vec::new();
            for cap in [8.0, 12.0, 15.0, 40.0] {
                policy.set_cap_w(&counting, cap);
                let (evaluations, categorized) = counting.take();
                assert_eq!(categorized, 3, "one categorize per class at {size} jobs");
                run.push((evaluations, None));
                for ready in &readies {
                    for device in Device::ALL {
                        let top = match device {
                            Device::Cpu => kg - 1,
                            Device::Gpu => kc - 1,
                        };
                        for co in [None, Some((0, 0)), Some((1, top)), Some((2, top))] {
                            let pick = policy.pick(&counting, ready, device, co);
                            run.push((counting.take().0, pick));
                        }
                    }
                }
            }
            runs.push(run);
        }
        assert_eq!(runs[0], runs[1]);
        assert!(
            runs[0].iter().any(|(_, pick)| pick.is_some()),
            "something was picked"
        );
    }

    /// The daemon's model (`ServiceConfig::fast`: analytic profiles, no
    /// LLC probe, the 4-point fast characterization) over the benchmark
    /// mix, srad, lud and hotspot at x0.05, and the 8 Rodinia programs at
    /// full scale. Against every co-runner, its own program included, at
    /// every co-level and cap, the paper's level rule lands on the highest
    /// feasible level, the rule the daemon's pick used before it shared
    /// the offline one: daemon decisions on this model do not move.
    #[test]
    fn the_paper_level_rule_is_the_highest_feasible_level_on_the_daemon_model() {
        let cfg = MachineConfig::ivy_bridge();
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 4;
        ccfg.micro_duration_s = 1.5;
        let predictor = StagedPredictor::new(&cfg, characterize(&cfg, &ccfg));
        let mut inc = IncrementalModel::new(cfg.clone(), predictor, ProfileMethod::Analytic, false);
        for name in ["srad", "lud", "hotspot"] {
            let program = kernels::by_name(&cfg, name).expect("a Rodinia program");
            inc.push_job(&kernels::with_input_scale(&program, 0.05));
        }
        for job in &kernels::rodinia8(&cfg).jobs {
            inc.push_job(job);
        }
        assert_eq!(inc.class_count(), 11);
        let (mut feasible, mut infeasible) = (0, 0);
        for cap in [8.0, 12.0, 15.0, 20.0, 40.0] {
            for device in Device::ALL {
                for job in 0..inc.len() {
                    for co in 0..inc.len() {
                        for co_level in 0..inc.levels(device.other()) {
                            let highest = best_level_against(&inc, job, device, co, co_level, cap);
                            assert_eq!(
                                fastest_level_against(&inc, job, device, co, co_level, cap),
                                highest,
                                "job {job} on {device} against {co} at level {co_level}, {cap} W"
                            );
                            if highest.is_some() {
                                feasible += 1;
                            } else {
                                infeasible += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            feasible > 0 && infeasible > 0,
            "{feasible} feasible, {infeasible} infeasible"
        );
    }

    #[test]
    fn grows_one_job_at_a_time() {
        let (cfg, predictor, jobs) = setup();
        let mut inc = IncrementalModel::new(cfg, predictor, ProfileMethod::Analytic, false);
        assert!(inc.is_empty());
        for (k, job) in jobs.iter().enumerate() {
            let id = inc.push_job(job);
            assert_eq!(id, k);
            assert_eq!(inc.len(), k + 1);
            assert_eq!(inc.job(id).name, job.name);
        }
    }
}
