//! A co-run model that grows one job at a time — the model a resident
//! scheduling service needs.
//!
//! [`crate::modelbuild::build_table_model`] materializes a dense
//! [`corun_core::TableModel`] over a *fixed* batch, which is the right
//! shape for offline scheduling but useless for a daemon whose job
//! universe grows with every submission: appending to the dense layout
//! means an `O(N^2 K^2)` rebuild per arrival. [`IncrementalModel`] keeps
//! the per-job standalone ladders dense (they are `O(K)` per job) and
//! computes pair degradations on demand from the same
//! [`StagedPredictor`] interpolation `build_table_model` bakes in, so
//! admitting job `N+1` costs one profiling pass and nothing else — and
//! both models return bit-identical numbers for the same inputs.

use apu_sim::{Device, FreqSetting, JobSpec, MachineConfig};
use corun_core::{CoRunModel, JobId};
use perf_model::{
    idle_package_power, measure_llc_vulnerability, profile_job, JobProfile, LlcVulnerability,
    ProfileMethod, StagedPredictor,
};
use std::sync::Arc;

/// A growable scheduler-facing co-run model (see module docs).
pub struct IncrementalModel {
    machine: MachineConfig,
    predictor: StagedPredictor,
    profile_method: ProfileMethod,
    llc_probe: bool,
    idle_power_w: f64,
    jobs: Vec<Arc<JobSpec>>,
    profiles: Vec<JobProfile>,
    vulnerabilities: Vec<LlcVulnerability>,
}

impl IncrementalModel {
    /// New empty model over `machine` using `predictor` for pair
    /// degradations. `llc_probe` enables the per-job LLC-vulnerability
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
            profiles: Vec::new(),
            vulnerabilities: Vec::new(),
        }
    }

    /// Profile `job` (and probe it, if enabled) and append it to the
    /// model. Returns its [`JobId`].
    pub fn push_job(&mut self, job: &JobSpec) -> JobId {
        let profile = profile_job(&self.machine, job, self.profile_method);
        if self.llc_probe {
            self.vulnerabilities.push(measure_llc_vulnerability(
                &self.machine,
                &self.predictor,
                job,
                &profile,
            ));
        }
        self.jobs.push(Arc::new(job.clone()));
        self.profiles.push(profile);
        self.jobs.len() - 1
    }

    /// The machine this model describes.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The job spec behind `i`.
    pub fn job(&self, i: JobId) -> &Arc<JobSpec> {
        &self.jobs[i]
    }

    /// All admitted job specs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[Arc<JobSpec>] {
        &self.jobs
    }

    /// The standalone profile of job `i`.
    pub fn profile(&self, i: JobId) -> &JobProfile {
        &self.profiles[i]
    }
}

impl CoRunModel for IncrementalModel {
    fn len(&self) -> usize {
        self.profiles.len()
    }

    fn name(&self, i: JobId) -> &str {
        &self.profiles[i].name
    }

    fn levels(&self, device: Device) -> usize {
        match device {
            Device::Cpu => self.machine.freqs.cpu.len(),
            Device::Gpu => self.machine.freqs.gpu.len(),
        }
    }

    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.profiles[i].time(device, f)
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
        let own = self.profiles[i].demand(device, f_own);
        let co = self.profiles[j].demand(device.other(), g_other);
        let base = self
            .predictor
            .degradation_at(device, own, co, cpu_ghz, gpu_ghz);
        let extra = if self.llc_probe {
            self.vulnerabilities[i].extra_degradation(device, co)
        } else {
            0.0
        };
        base + extra
    }

    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.profiles[i].power(device, f)
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
    use perf_model::{characterize, probe_batch, profile_batch, CharacterizeConfig};

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
        for i in 0..jobs.len() {
            for j in 0..jobs.len() {
                for f in 0..levels.cpu {
                    for g in 0..levels.gpu {
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
