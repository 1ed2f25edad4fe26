//! The integrated co-scheduling runtime — the paper's prototype.
//!
//! `CoScheduleRuntime::new` performs the offline stage (standalone
//! profiling, micro-benchmark characterization, LLC probing, model
//! materialization); the scheduling methods then produce schedules in
//! microseconds; the execute methods run them on the simulator for
//! ground-truth makespans and power traces.
//!
//! The offline stage profiles and probes each distinct *program* once per
//! config, as the paper does (Section V): every clone of a
//! [`RuntimeConfig`] shares one in-memory class cache of profiles, LLC
//! vulnerabilities and the loaded characterization ([`crate::cache`]), so
//! a batch measures only the programs no earlier batch brought. A job's
//! name is not part of its program; its profile is relabelled with it.

use crate::cache::ClassCache;
use crate::executor::{execute_default, execute_schedule, LevelPolicy};
use crate::modelbuild::build_table_model;
use apu_sim::{
    Bias, BiasedGovernor, FreqSetting, JobSpec, MachineConfig, NullGovernor, RunReport, SimError,
};
use corun_core::{
    default_partition, hcs, lower_bound, random_schedule, refine, BoundReport, DefaultPartition,
    HcsConfig, HcsOutcome, RefineConfig, Schedule, TableModel,
};
use perf_model::{
    CharacterizeConfig, JobProfile, LlcVulnerability, ProfileMethod, StagedPredictor,
};

/// Configuration of the runtime's offline stage and policies.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Package power cap, watts.
    pub cap_w: f64,
    /// How standalone profiles are collected.
    pub profile_method: ProfileMethod,
    /// Micro-benchmark characterization setup.
    pub characterization: CharacterizeConfig,
    /// Probability that the Random baseline leaves a job to run alone.
    pub random_solo_prob: f64,
    /// HCS+ refinement parameters (cap is filled in from `cap_w`).
    pub refine_random_swaps: usize,
    /// HCS+ cross-device swap samples.
    pub refine_cross_swaps: usize,
    /// Refinement RNG seed.
    pub refine_seed: u64,
    /// Run the O(N) LLC-vulnerability probe and fold its correction into
    /// the scheduler's model (our extension; the paper's model is
    /// bandwidth-only and blind to dwt2d-style LLC thrashing).
    pub llc_probe: bool,
    /// If set, also keep the machine characterization on disk under this
    /// directory (keyed by a machine+parameters fingerprint). Profiles and
    /// probes are cached in memory only, whatever this says.
    pub cache_dir: Option<std::path::PathBuf>,
    /// The class cache every clone of this config shares.
    classes: ClassCache,
}

impl RuntimeConfig {
    /// The paper's setup: 15 W cap, measured profiles, 3x3-stage 11-point
    /// characterization.
    pub fn paper(cfg: &MachineConfig) -> Self {
        RuntimeConfig {
            cap_w: 15.0,
            profile_method: ProfileMethod::Measured,
            characterization: CharacterizeConfig::paper(cfg),
            random_solo_prob: 0.05,
            refine_random_swaps: 32,
            refine_cross_swaps: 32,
            refine_seed: 0x5eed,
            llc_probe: true,
            cache_dir: None,
            classes: ClassCache::default(),
        }
    }

    /// Coarse, fast setup for tests.
    pub fn fast(cfg: &MachineConfig) -> Self {
        let mut c = Self::paper(cfg);
        c.profile_method = ProfileMethod::Analytic;
        c.characterization = CharacterizeConfig::fast(cfg);
        c.characterization.grid_points = 4;
        c.characterization.micro_duration_s = 1.5;
        c.refine_random_swaps = 16;
        c.refine_cross_swaps = 16;
        c
    }
}

/// The assembled runtime for one machine and one batch of jobs.
pub struct CoScheduleRuntime {
    machine: MachineConfig,
    jobs: Vec<JobSpec>,
    config: RuntimeConfig,
    profiles: Vec<JobProfile>,
    predictor: StagedPredictor,
    vulnerabilities: Option<Vec<LlcVulnerability>>,
    model: TableModel,
}

impl CoScheduleRuntime {
    /// Run the offline stage and assemble the runtime. Stages, profiles
    /// and probes already in the config's class cache are reused; only
    /// the batch's new programs are profiled and probed.
    pub fn new(machine: MachineConfig, jobs: Vec<JobSpec>, config: RuntimeConfig) -> Self {
        let classes = &config.classes;
        let (stages_fp, stages) = classes.stages(
            &machine,
            &config.characterization,
            config.cache_dir.as_deref(),
        );
        let predictor = StagedPredictor::new(&machine, stages);
        let (profiles, vulnerabilities): (Vec<_>, Vec<_>) = jobs
            .iter()
            .map(|job| {
                classes.profile(
                    &machine,
                    &predictor,
                    stages_fp,
                    config.profile_method,
                    config.llc_probe,
                    job,
                )
            })
            .unzip();
        let vulnerabilities = config
            .llc_probe
            .then(|| vulnerabilities.into_iter().flatten().collect());
        let model = build_table_model(&machine, &profiles, &predictor, vulnerabilities.as_deref());
        CoScheduleRuntime {
            machine,
            jobs,
            config,
            profiles,
            predictor,
            vulnerabilities,
            model,
        }
    }

    /// The probed LLC vulnerabilities, if the probe ran.
    pub fn vulnerabilities(&self) -> Option<&[LlcVulnerability]> {
        self.vulnerabilities.as_deref()
    }

    /// The machine description.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The job batch.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Standalone profiles (Table I data).
    pub fn profiles(&self) -> &[JobProfile] {
        &self.profiles
    }

    /// The staged-interpolation predictor.
    pub fn predictor(&self) -> &StagedPredictor {
        &self.predictor
    }

    /// The materialized scheduler-facing model.
    pub fn model(&self) -> &TableModel {
        &self.model
    }

    /// Run HCS.
    pub fn schedule_hcs(&self) -> HcsOutcome {
        let out = hcs(&self.model, &HcsConfig::with_cap(self.config.cap_w));
        self.debug_lint(&out.schedule, "hcs");
        out
    }

    /// Run HCS followed by the HCS+ refinement; returns the refined
    /// schedule.
    pub fn schedule_hcs_plus(&self) -> Schedule {
        let out = self.schedule_hcs();
        let rc = RefineConfig {
            cap_w: self.config.cap_w,
            random_swaps: self.config.refine_random_swaps,
            cross_swaps: self.config.refine_cross_swaps,
            seed: self.config.refine_seed,
            objective: corun_core::Objective::Makespan,
        };
        let s = refine(&self.model, &out.schedule, &rc).schedule;
        self.debug_lint(&s, "hcs+");
        s
    }

    /// One Random-baseline schedule.
    pub fn schedule_random(&self, seed: u64) -> Schedule {
        let s = random_schedule(&self.model, seed, self.config.random_solo_prob);
        self.debug_lint(&s, "random");
        s
    }

    /// The Default baseline's partition.
    pub fn schedule_default(&self) -> DefaultPartition {
        default_partition(&self.model)
    }

    /// The lower bound on the optimal makespan.
    pub fn lower_bound(&self) -> BoundReport {
        lower_bound(&self.model, self.config.cap_w)
    }

    /// Lint a schedule against this runtime's model and cap.
    ///
    /// `levels_planned` follows [`corun_verify::lint_schedule`]: pass
    /// `true` for HCS/HCS+ output (the scheduler owns cap feasibility)
    /// and `false` for Random/Default schedules executed under a
    /// reactive governor.
    pub fn lint_schedule(&self, schedule: &Schedule, levels_planned: bool) -> corun_verify::Report {
        corun_verify::lint_schedule(
            &self.model,
            schedule,
            Some(self.config.cap_w),
            levels_planned,
        )
    }

    /// In debug builds, panic if a scheduler emitted a structurally
    /// broken schedule (SCH001/SCH005) — always a bug in the algorithm,
    /// never a property of the workload.
    fn debug_lint(&self, schedule: &Schedule, who: &str) {
        if cfg!(debug_assertions) {
            let report = corun_verify::lint_schedule_structure(&self.model, schedule);
            debug_assert!(
                report.is_clean(),
                "{who} produced a structurally invalid schedule:\n{}",
                report.render_human()
            );
        }
    }

    /// Execute a planned schedule (HCS/HCS+): levels applied from the
    /// schedule, no reactive governor.
    ///
    /// Panics if the simulation stalls; use
    /// [`try_execute_planned`](Self::try_execute_planned) to surface
    /// the error instead.
    pub fn execute_planned(&self, schedule: &Schedule) -> RunReport {
        self.try_execute_planned(schedule)
            .expect("planned execution cannot stall")
    }

    /// Fallible variant of [`execute_planned`](Self::execute_planned).
    pub fn try_execute_planned(&self, schedule: &Schedule) -> Result<RunReport, SimError> {
        let mut gov = NullGovernor;
        execute_schedule(
            &self.machine,
            &self.jobs,
            schedule,
            &mut gov,
            LevelPolicy::Planned,
            self.initial_setting(),
        )
    }

    /// Execute a schedule with a reactive biased governor owning the clocks
    /// (the Random baseline's execution mode).
    ///
    /// Panics if the simulation stalls; use
    /// [`try_execute_governed`](Self::try_execute_governed) to surface
    /// the error instead.
    pub fn execute_governed(&self, schedule: &Schedule, bias: Bias) -> RunReport {
        self.try_execute_governed(schedule, bias)
            .expect("governed execution cannot stall")
    }

    /// Fallible variant of [`execute_governed`](Self::execute_governed).
    pub fn try_execute_governed(
        &self,
        schedule: &Schedule,
        bias: Bias,
    ) -> Result<RunReport, SimError> {
        let mut gov = self.governor(bias);
        execute_schedule(
            &self.machine,
            &self.jobs,
            schedule,
            &mut gov,
            LevelPolicy::GovernorOwned,
            self.machine.freqs.max_setting(),
        )
    }

    /// Execute the Default baseline (multiprogrammed CPU partition) with a
    /// biased governor.
    ///
    /// Panics if the simulation stalls; use
    /// [`try_execute_default`](Self::try_execute_default) to surface
    /// the error instead.
    pub fn execute_default(&self, partition: &DefaultPartition, bias: Bias) -> RunReport {
        self.try_execute_default(partition, bias)
            .expect("default execution cannot stall")
    }

    /// Fallible variant of [`execute_default`](Self::execute_default).
    pub fn try_execute_default(
        &self,
        partition: &DefaultPartition,
        bias: Bias,
    ) -> Result<RunReport, SimError> {
        let mut gov = self.governor(bias);
        execute_default(&self.machine, &self.jobs, partition, &mut gov)
    }

    /// Average ground-truth makespan of the Random baseline over `seeds`
    /// (the paper averages 20 seeds), executed with a GPU-biased governor.
    pub fn random_avg_makespan(&self, seeds: std::ops::Range<u64>) -> f64 {
        let mut total = 0.0;
        let mut count = 0;
        for seed in seeds {
            let s = self.schedule_random(seed);
            total += self.execute_governed(&s, Bias::Gpu).makespan_s;
            count += 1;
        }
        total / count as f64
    }

    fn governor(&self, bias: Bias) -> BiasedGovernor {
        match bias {
            Bias::Gpu => BiasedGovernor::gpu_biased(self.config.cap_w),
            Bias::Cpu => BiasedGovernor::cpu_biased(self.config.cap_w),
        }
    }

    fn initial_setting(&self) -> FreqSetting {
        // Planned schedules set per-dispatch levels; start from the floor so
        // the brief pre-dispatch instant cannot violate the cap.
        self.machine.freqs.min_setting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::Device;
    use corun_core::{evaluate, CoRunModel};

    fn small_runtime() -> CoScheduleRuntime {
        let machine = MachineConfig::ivy_bridge();
        let jobs: Vec<JobSpec> = kernels::rodinia_suite(&machine)
            .iter()
            .map(|j| kernels::with_input_scale(j, 0.12))
            .collect();
        let cfg = RuntimeConfig::fast(&machine);
        CoScheduleRuntime::new(machine, jobs, cfg)
    }

    /// What a batch yields for its user: the HCS+ schedule, the lower
    /// bound and the executed makespan, the last two as bits.
    fn outcome(rt: &CoScheduleRuntime) -> (Schedule, u64, u64) {
        let schedule = rt.schedule_hcs_plus();
        let bound = rt.lower_bound().t_low_s.to_bits();
        let makespan = rt.execute_planned(&schedule).makespan_s.to_bits();
        (schedule, bound, makespan)
    }

    /// `rodinia16` seeds 1-10 through one shared config and through a
    /// fresh config per batch must agree bit for bit, and the shared
    /// config must measure the 8 unscaled programs in batch 0 only.
    fn shared_cache_matches_fresh_configs(config: fn(&MachineConfig) -> RuntimeConfig) {
        let machine = MachineConfig::ivy_bridge();
        let shared = config(&machine);
        for seed in 1..=10 {
            let jobs = kernels::rodinia16(&machine, seed).jobs;
            let before = shared.classes.misses();
            let cached = CoScheduleRuntime::new(machine.clone(), jobs.clone(), shared.clone());
            // The rescaled half of a batch is new in every batch.
            let new = if seed == 1 { 16 } else { 8 };
            assert_eq!(shared.classes.misses() - before, new, "batch {seed}");
            let fresh = CoScheduleRuntime::new(machine.clone(), jobs, config(&machine));
            assert_eq!(outcome(&cached), outcome(&fresh), "batch {seed}");
        }
    }

    #[test]
    fn a_shared_class_cache_changes_no_outcome() {
        shared_cache_matches_fresh_configs(RuntimeConfig::fast);
    }

    /// The paper's configuration (measured profiles, LLC probe, 3x3
    /// stages): too slow for a debug build, so ci.sh runs it in release.
    #[test]
    #[ignore = "paper configuration; ci.sh runs it with --release"]
    fn a_shared_class_cache_changes_no_outcome_at_paper_settings() {
        shared_cache_matches_fresh_configs(RuntimeConfig::paper);
    }

    /// FNV-1a over a schedule's rendering: each queue's `(job, level)`
    /// in order, then the solo tail.
    fn digest(schedule: &Schedule) -> u64 {
        (schedule.to_string().bytes()).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `(HCS, HCS+)` schedule digests for `rodinia16` seeds 1-10 at 10,
    /// 15 and 20 W, seed-major.
    fn offline_digests(config: fn(&MachineConfig) -> RuntimeConfig) -> Vec<(u64, u64)> {
        let machine = MachineConfig::ivy_bridge();
        let shared = config(&machine);
        let mut out = Vec::new();
        for seed in 1..=10 {
            let jobs = kernels::rodinia16(&machine, seed).jobs;
            for cap_w in [10.0, 15.0, 20.0] {
                let config = RuntimeConfig {
                    cap_w,
                    ..shared.clone()
                };
                let rt = CoScheduleRuntime::new(machine.clone(), jobs.clone(), config);
                let hcs = digest(&rt.schedule_hcs().schedule);
                out.push((hcs, digest(&rt.schedule_hcs_plus())));
            }
        }
        out
    }

    #[test]
    fn offline_schedules_match_their_pinned_digests() {
        assert_eq!(offline_digests(RuntimeConfig::fast), PINNED_FAST);
    }

    /// The same at the paper's settings: too slow for a debug build, so
    /// ci.sh runs it with `--release`.
    #[test]
    #[ignore = "paper configuration; ci.sh runs it with --release"]
    fn offline_schedules_match_their_pinned_digests_at_paper_settings() {
        assert_eq!(offline_digests(RuntimeConfig::paper), PINNED_PAPER);
    }

    // The pinned digests: a change that moves any offline schedule fails
    // here, and must re-pin them on purpose.
    const PINNED_FAST: [(u64, u64); 30] = [
        (0x9c05e68d333728d5, 0x79ef425e2f9d90a1),
        (0xe89891eb7f1c9dfc, 0x2b224f935f8ee77a),
        (0xe573497169a8c437, 0x59295adb2e1ebfc9),
        (0xc88ba9aa022a11ee, 0x0fc2437806fbfd19),
        (0x567e385fc3564446, 0xfe915082bf47ae07),
        (0x04ae59c2f6ed7429, 0x9bc6d8501027a6f5),
        (0xc67ae6e6e2a01168, 0x9c8994da38233c2a),
        (0x8ba37481284de53a, 0x26e038f3d5c80ca7),
        (0x25d88754c15a4e9a, 0xb8f3ecef5ee14df8),
        (0x16ce6d893708b448, 0x75139a6ea2e25e9c),
        (0xe89891eb7f1c9dfc, 0x90a40b76acbab894),
        (0xf6486f24c8224381, 0xd16e737f59f1d1fd),
        (0xe6930567656f1616, 0xc67477cf7f6d047e),
        (0xabe017908f2801d2, 0x8f2d5a1991bb5d3f),
        (0x18ae98e42afc8cda, 0xf48fb11fd53c8be8),
        (0xab0519ca4911ff25, 0x0de12caf66219c87),
        (0x9a421bdced5f81fa, 0x93f9ea5f4e71c455),
        (0xc53cd902453e5085, 0x062da27fbc8126db),
        (0x0159c890f9ad293d, 0x01a570723123e32d),
        (0x81be0d1c85b3ec26, 0xe9f93a4362b71047),
        (0x0277b8b6ab3a840d, 0x67a6201170bc0597),
        (0x3bade68654051ccf, 0x47d0cdc1d5772f8f),
        (0x1185a35efab8b08c, 0x25241d4313c3a1b8),
        (0x14481c368fd19938, 0xb6a35c0ae1b820b4),
        (0xc6808f1e96bdd98b, 0x5a0a781f748a76b9),
        (0x2c85850571c6e351, 0x9ec033f051529e53),
        (0xe56327a1c858cefb, 0x4c5ce0a12150c0ef),
        (0x8726ac94a19f98fb, 0x5c5d0096ecf6ce8d),
        (0xe807f982caf114c0, 0xbdf0656e87ef3ab2),
        (0xe573497169a8c437, 0x0de6ca0e71a84189),
    ];
    const PINNED_PAPER: [(u64, u64); 30] = [
        (0xa1d8d0baef70b6f5, 0xd44d80f104657533),
        (0xe89891eb7f1c9dfc, 0xa39e36d5bbe82a5a),
        (0xe573497169a8c437, 0x5ebd3ab4753e07c7),
        (0x1fb0398373385808, 0x77c415a79dd5e552),
        (0x2cac1bef78a0980e, 0x1c7ceb974c107568),
        (0x04ae59c2f6ed7429, 0x62979e9f90eb5b2d),
        (0xc67ae6e6e2a01168, 0x9c8994da38233c2a),
        (0x006b76bb4d189782, 0x77385d6d2a5125eb),
        (0x3e11bd034c1b5be6, 0x609857bd24fc7126),
        (0x9c6ed7a5cd2a1580, 0xab6391d6a07fb4bc),
        (0xe89891eb7f1c9dfc, 0x4d0718f2ac21b28a),
        (0xf6486f24c8224381, 0x93755fc50bae48b9),
        (0x99210089bd4b1eee, 0x5d6416dbe0595f12),
        (0xabe017908f2801d2, 0xad19de04b710ec5e),
        (0x18ae98e42afc8cda, 0x793f12c36045455e),
        (0x29e0ed5da2c45326, 0x565db6c948688b1c),
        (0xc3e06f3f168e1766, 0x59b822c154bff1d0),
        (0x642531c178b4cf1a, 0x9f46fe34af0c5a96),
        (0xef0ff43f1daf3d49, 0x111c1bb8c50666d3),
        (0xf71d613082050e76, 0xdf28a78cc3f91f8d),
        (0x0277b8b6ab3a840d, 0xe792e7edfcdde3b6),
        (0x3bade68654051ccf, 0x088aaa38ecfe6b37),
        (0xd9fff305bafa2b5a, 0x273b9b265df94446),
        (0xba16326517d0b5e8, 0x75d0831856b0da3c),
        (0x8baf0da1a7a803c7, 0xe49cedb63a33f04b),
        (0xfa2d11f8c6ab051c, 0xc798e9971090cb86),
        (0xe56327a1c858cefb, 0x7a8c0a85e41e5845),
        (0x43805c068d95a297, 0xf4a805612cf1c4e9),
        (0xe89891eb7f1c9dfc, 0xd294dcf40fe4cf94),
        (0xe573497169a8c437, 0x6cea88c4db570541),
    ];

    #[test]
    fn a_renamed_program_shares_one_class_and_keeps_its_name() {
        let machine = MachineConfig::ivy_bridge();
        let lud = kernels::with_input_scale(&kernels::by_name(&machine, "lud").unwrap(), 0.12);
        let copy = JobSpec {
            name: "lud-copy".into(),
            ..lud.clone()
        };
        let cfg = RuntimeConfig::fast(&machine);
        let rt = CoScheduleRuntime::new(machine, vec![lud.clone(), copy], cfg.clone());
        assert_eq!(cfg.classes.misses(), 1, "one class, measured once");
        let bits = |p: &JobProfile| -> Vec<u64> {
            Device::ALL
                .iter()
                .map(|&d| p.per_device.get(d))
                .flat_map(|d| d.time_s.iter().chain(&d.demand_gbps).chain(&d.power_w))
                .map(|x| x.to_bits())
                .collect()
        };
        let [a, b] = rt.profiles() else {
            panic!("two profiles")
        };
        assert_eq!(bits(a), bits(b));
        let [va, vb] = rt.vulnerabilities().expect("the probe is on") else {
            panic!("two vulnerabilities")
        };
        let knots = |v: &LlcVulnerability| -> Vec<(u64, u64)> {
            (v.curve.cpu.iter().chain(&v.curve.gpu))
                .map(|(d, e)| (d.to_bits(), e.to_bits()))
                .collect()
        };
        assert_eq!(knots(va), knots(vb));
        assert_eq!(
            (a.name.as_str(), b.name.as_str()),
            (lud.name.as_str(), "lud-copy")
        );
        assert_eq!(
            (rt.model().name(0), rt.model().name(1)),
            (lud.name.as_str(), "lud-copy")
        );
    }

    #[test]
    fn a_clone_with_another_method_machine_or_characterization_misses() {
        let machine = MachineConfig::ivy_bridge();
        let jobs = vec![kernels::with_input_scale(
            &kernels::by_name(&machine, "srad").unwrap(),
            0.12,
        )];
        let base = RuntimeConfig::fast(&machine);
        // Misses so far, and the demand-axis length of the stages used.
        let run = |m: &MachineConfig, c: &RuntimeConfig| {
            let rt = CoScheduleRuntime::new(m.clone(), jobs.clone(), c.clone());
            let grid_points = rt.predictor().stages()[0].surface.deg.cpu.cpu_axis.len();
            (base.classes.misses(), grid_points)
        };
        assert_eq!(run(&machine, &base), (1, 4));
        assert_eq!(run(&machine, &base), (1, 4), "the same config hits");
        let mut measured = base.clone();
        measured.profile_method = ProfileMethod::Measured;
        assert_eq!(run(&machine, &measured), (2, 4), "another profile method");
        let mut coarser = base.clone();
        coarser.characterization.grid_points = 3;
        assert_eq!(run(&machine, &coarser), (3, 3), "another characterization");
        let mut other = machine.clone();
        other.power_sample_s *= 2.0;
        assert_eq!(run(&other, &base), (4, 4), "another machine");
        assert_eq!(
            run(&machine, &base),
            (4, 4),
            "the first class is still held"
        );
    }

    #[test]
    fn pipeline_builds_and_schedules() {
        let rt = small_runtime();
        assert_eq!(rt.model().len(), 8);
        let out = rt.schedule_hcs();
        assert!(out.schedule.is_complete_for(8), "{}", out.schedule);
        let plus = rt.schedule_hcs_plus();
        assert!(plus.is_complete_for(8));
    }

    #[test]
    fn hcs_plus_not_worse_than_hcs_in_model() {
        let rt = small_runtime();
        let h = rt.schedule_hcs().schedule;
        let hp = rt.schedule_hcs_plus();
        let cap = Some(rt.config().cap_w);
        let mh = evaluate(rt.model(), &h, cap).makespan_s;
        let mhp = evaluate(rt.model(), &hp, cap).makespan_s;
        assert!(mhp <= mh + 1e-9);
    }

    #[test]
    fn planned_execution_completes_all_jobs() {
        let rt = small_runtime();
        let s = rt.schedule_hcs_plus();
        let r = rt.execute_planned(&s);
        assert_eq!(r.records.len(), 8);
    }

    #[test]
    fn hcs_beats_random_average_in_ground_truth() {
        let rt = small_runtime();
        let rand_avg = rt.random_avg_makespan(0..5);
        let hcs_span = rt.execute_planned(&rt.schedule_hcs_plus()).makespan_s;
        assert!(
            hcs_span < rand_avg,
            "HCS+ {hcs_span} must beat random average {rand_avg}"
        );
    }

    #[test]
    fn lower_bound_below_all_achieved_makespans() {
        let rt = small_runtime();
        let b = rt.lower_bound();
        let hcs_span = rt.execute_planned(&rt.schedule_hcs_plus()).makespan_s;
        assert!(
            b.t_low_s <= hcs_span * 1.05,
            "bound {} vs {}",
            b.t_low_s,
            hcs_span
        );
    }

    #[test]
    fn default_partition_executes() {
        let rt = small_runtime();
        let p = rt.schedule_default();
        let r = rt.execute_default(&p, Bias::Gpu);
        assert_eq!(r.records.len(), 8);
    }

    #[test]
    fn scheduler_outputs_lint_clean() {
        let rt = small_runtime();
        let hcs = rt.lint_schedule(&rt.schedule_hcs().schedule, true);
        assert!(hcs.is_clean(), "{}", hcs.render_human());
        let plus = rt.lint_schedule(&rt.schedule_hcs_plus(), true);
        assert!(plus.is_clean(), "{}", plus.render_human());
        let random = rt.lint_schedule(&rt.schedule_random(7), false);
        assert!(random.is_clean(), "{}", random.render_human());
        let default = rt.schedule_default().to_schedule(rt.model());
        let default = rt.lint_schedule(&default, false);
        assert!(default.is_clean(), "{}", default.render_human());
    }

    #[test]
    fn try_execute_variants_agree_with_panicking_ones() {
        let rt = small_runtime();
        let s = rt.schedule_hcs_plus();
        let r = rt.try_execute_planned(&s).unwrap();
        assert_eq!(r.records.len(), 8);
        let r = rt.try_execute_governed(&s, Bias::Gpu).unwrap();
        assert_eq!(r.records.len(), 8);
        let p = rt.schedule_default();
        let r = rt.try_execute_default(&p, Bias::Gpu).unwrap();
        assert_eq!(r.records.len(), 8);
    }

    #[test]
    fn planned_execution_power_stays_near_cap() {
        let rt = small_runtime();
        let s = rt.schedule_hcs_plus();
        let r = rt.execute_planned(&s);
        let cap = rt.config().cap_w;
        // Planned levels are model-feasible; ground-truth power may exceed
        // the cap only slightly (model error), as in the paper's Figure 9.
        assert!(
            r.trace.max_w() <= cap + 2.5,
            "peak {} too far above cap {cap}",
            r.trace.max_w()
        );
    }
}
