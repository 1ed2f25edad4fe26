//! Materialize a dense [`TableModel`] for the schedulers from the
//! predictive models — standalone profiles plus the staged-interpolation
//! predictor. This is what makes the scheduling algorithms cheap at run
//! time: all `O(N^2 K^2)` degradations come from interpolation, not from
//! profiling runs.
//!
//! The profiles come from the offline stage, which profiles and probes
//! each distinct program once per config (see [`crate::cache`]). The build
//! locates every clock and demand on the stage and surface axes once per
//! batch ([`StagedPredictor::prepare_batch`]) and computes the LLC
//! correction once per pair and co-runner level, so each table entry pays
//! only the four-stage blend that
//! [`StagedPredictor::degradation_at`] also uses.

use apu_sim::{Device, MachineConfig, PerDevice};
use corun_core::TableModel;
use perf_model::{idle_package_power, JobProfile, LlcVulnerability, StagedPredictor};

/// Build the scheduler-facing model for a batch.
///
/// `vulnerabilities`, when provided (one entry per job, from
/// [`perf_model::probe_batch`]), add the LLC-thrashing correction on top of
/// the paper's bandwidth-only staged interpolation; pass `None` for the
/// paper-pure model.
pub fn build_table_model(
    cfg: &MachineConfig,
    profiles: &[JobProfile],
    predictor: &StagedPredictor,
    vulnerabilities: Option<&[LlcVulnerability]>,
) -> TableModel {
    if let Some(v) = vulnerabilities {
        assert_eq!(v.len(), profiles.len());
    }
    let n = profiles.len();
    let names = profiles.iter().map(|p| p.name.clone()).collect();
    let k_cpu = cfg.freqs.cpu.len();
    let k_gpu = cfg.freqs.gpu.len();
    let levels = PerDevice::new(k_cpu, k_gpu);
    let batch = predictor.prepare_batch(cfg, profiles);
    // LLC correction of `i` on `device` against `j` at the other device's
    // level, laid out `[(i * n + j) * k_other + level]`: it depends on the
    // co-runner's demand only, not on `i`'s own level.
    let extra = PerDevice::from_fn(|device| {
        let other = device.other();
        let k_other = *levels.get(other);
        let mut out = Vec::with_capacity(n * n * k_other);
        for i in 0..n {
            for p in profiles {
                out.extend((0..k_other).map(|g| {
                    vulnerabilities
                        .map_or(0.0, |v| v[i].extra_degradation(device, p.demand(other, g)))
                }));
            }
        }
        out
    });
    TableModel::build(
        names,
        k_cpu,
        k_gpu,
        idle_package_power(cfg),
        |i, device, level| profiles[i].time(device, level),
        |i, device, f_own, j, g_other| {
            // Convention: `i` on `device` at `f_own`; `j` on the other
            // device at `g_other`.
            let base = match device {
                Device::Cpu => batch.degradation(device, i, f_own, j, g_other),
                Device::Gpu => batch.degradation(device, j, g_other, i, f_own),
            };
            base + extra.get(device)[(i * n + j) * levels.get(device.other()) + g_other]
        },
        |i, device, level| profiles[i].power(device, level),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use corun_core::CoRunModel;
    use perf_model::{characterize, profile_batch, CharacterizeConfig, ProfileMethod};

    fn setup() -> (MachineConfig, TableModel) {
        let cfg = MachineConfig::ivy_bridge();
        let jobs = kernels::rodinia_suite(&cfg);
        let profiles = profile_batch(&cfg, &jobs, ProfileMethod::Analytic);
        let mut ccfg = CharacterizeConfig::fast(&cfg);
        ccfg.grid_points = 4;
        ccfg.micro_duration_s = 1.5;
        let predictor = StagedPredictor::new(&cfg, characterize(&cfg, &ccfg));
        let model = build_table_model(&cfg, &profiles, &predictor, None);
        (cfg, model)
    }

    #[test]
    fn model_covers_batch_and_ladders() {
        let (cfg, m) = setup();
        assert_eq!(m.len(), 8);
        assert_eq!(m.levels(Device::Cpu), cfg.freqs.cpu.len());
        assert_eq!(m.levels(Device::Gpu), cfg.freqs.gpu.len());
    }

    #[test]
    fn standalone_times_match_table1() {
        let (cfg, m) = setup();
        let i = (0..8).find(|&i| m.name(i) == "streamcluster").unwrap();
        let t = m.standalone(i, Device::Gpu, cfg.freqs.gpu.max_level());
        assert!((t - 23.72).abs() < 0.5, "got {t}");
    }

    #[test]
    fn degradations_are_sane() {
        let (cfg, m) = setup();
        let kc = cfg.freqs.cpu.max_level();
        let kg = cfg.freqs.gpu.max_level();
        for i in 0..8 {
            for j in 0..8 {
                let d = m.degradation(i, Device::Cpu, kc, j, kg);
                assert!((0.0..1.5).contains(&d), "deg {d} out of range");
            }
        }
        // streamcluster (heavy) hurts more than dwt2d-on-GPU (light)
        let sc = (0..8).find(|&i| m.name(i) == "streamcluster").unwrap();
        let dwt = (0..8).find(|&i| m.name(i) == "dwt2d").unwrap();
        let cfd = (0..8).find(|&i| m.name(i) == "cfd").unwrap();
        let vs_heavy = m.degradation(cfd, Device::Cpu, kc, sc, kg);
        let vs_light = m.degradation(cfd, Device::Cpu, kc, dwt, kg);
        assert!(vs_heavy > vs_light, "{vs_heavy} vs {vs_light}");
    }

    #[test]
    fn power_composition_under_cap_at_low_levels() {
        let (_, m) = setup();
        let p = m.corun_power(Some((0, 0)), Some((1, 0)));
        assert!(p < 15.0, "lowest levels must fit the paper's cap, got {p}");
        let hi = m.corun_power(Some((0, 15)), Some((1, 9)));
        assert!(hi > 15.0, "highest levels must exceed it, got {hi}");
    }
}
