//! LLC-vulnerability probing — an `O(N)` extension to the paper's
//! bandwidth-only model.
//!
//! The staged-interpolation model sees only DRAM bandwidth, so it is blind
//! to the failure mode of Section III's dwt2d example: a cache-resident
//! program whose working set is evicted by a streaming co-runner degrades
//! far beyond what bandwidth contention predicts. The probe measures, a
//! few times per job per device, the job's co-run degradation against
//! micro-benchmark stressors of increasing intensity and records the
//! *excess* over the surface prediction. Predicting a real pair then adds
//! the excess interpolated at the co-runner's demand (eviction pressure is
//! proxied by bandwidth demand, which standalone profiles already contain).
//!
//! The response is strongly nonlinear — at low pressure the extra misses
//! hide under compute, at high pressure the job turns memory-bound — so a
//! single probe point is not enough; three points (2.25, 4.5, 9 GB/s) with
//! piecewise-linear interpolation capture the knee.
//!
//! Cost: `8N` extra profiling runs (per device, one solo run and one
//! co-run per probe demand) — the same order as standalone profiling
//! itself, far below the `O(N^2 K^2)` of exhaustive pair
//! profiling the paper set out to avoid.

use crate::predictor::StagedPredictor;
use crate::profile::JobProfile;
use apu_sim::{run_solo, run_with_background, Device, JobSpec, MachineConfig, PerDevice};
use kernels::MicroKernel;
use serde::{Deserialize, Serialize};

/// Solo demands of the probe stressors, GB/s.
pub const PROBE_DEMANDS_GBPS: [f64; 3] = [2.25, 4.5, 9.0];

/// LLC vulnerability of one job: excess degradation (beyond the bandwidth
/// model) as a function of co-runner demand, per device the job runs on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlcVulnerability {
    /// Per device: `(probe demand GB/s, excess degradation)` knots, sorted
    /// by demand. Interpolation passes through the origin and clamps past
    /// the last knot.
    pub curve: PerDevice<Vec<(f64, f64)>>,
}

impl LlcVulnerability {
    /// A zero vulnerability (bandwidth model fully explains the job).
    pub fn none() -> Self {
        LlcVulnerability {
            curve: PerDevice::new(
                PROBE_DEMANDS_GBPS.iter().map(|&d| (d, 0.0)).collect(),
                PROBE_DEMANDS_GBPS.iter().map(|&d| (d, 0.0)).collect(),
            ),
        }
    }

    /// Extra degradation to add for a co-runner with solo demand
    /// `co_demand_gbps` when this job runs on `device`.
    pub fn extra_degradation(&self, device: Device, co_demand_gbps: f64) -> f64 {
        let knots = self.curve.get(device);
        if knots.is_empty() || co_demand_gbps <= 0.0 {
            return 0.0;
        }
        // Piecewise linear through (0, 0) and the knots; clamp at the top.
        let mut prev = (0.0, 0.0);
        for &(d, e) in knots {
            if co_demand_gbps <= d {
                let t = (co_demand_gbps - prev.0) / (d - prev.0).max(1e-12);
                return (prev.1 + t * (e - prev.1)).max(0.0);
            }
            prev = (d, e);
        }
        prev.1.max(0.0)
    }

    /// Maximum excess over both devices (a "is this job LLC-fragile" score).
    pub fn max_excess(&self) -> f64 {
        Device::ALL
            .iter()
            .flat_map(|&d| self.curve.get(d).iter().map(|&(_, e)| e))
            .fold(0.0, f64::max)
    }
}

/// Measure one job's LLC vulnerability on both devices at the maximum
/// frequency setting.
pub fn measure_llc_vulnerability(
    cfg: &MachineConfig,
    predictor: &StagedPredictor,
    job: &JobSpec,
    profile: &JobProfile,
) -> LlcVulnerability {
    let setting = cfg.freqs.max_setting();
    let curve = PerDevice::from_fn(|device| {
        let other = device.other();
        let solo = run_solo(cfg, job, device, setting)
            .expect("probe solo")
            .time_s;
        let own_level = cfg.freqs.table(device).max_level();
        let own_demand = profile.demand(device, own_level);
        PROBE_DEMANDS_GBPS
            .iter()
            .map(|&probe_demand| {
                let probe =
                    MicroKernel::for_bandwidth(cfg, other, setting, probe_demand, 4.0).to_job(cfg);
                let co =
                    run_with_background(cfg, job, device, &probe, setting).expect("probe co-run");
                let measured = (co / solo - 1.0).max(0.0);
                let predicted = predictor.degradation_at(
                    device,
                    own_demand,
                    probe_demand,
                    cfg.f_max(Device::Cpu),
                    cfg.f_max(Device::Gpu),
                );
                (probe_demand, (measured - predicted).max(0.0))
            })
            .collect()
    });
    LlcVulnerability { curve }
}

/// Probe a whole batch.
pub fn probe_batch(
    cfg: &MachineConfig,
    predictor: &StagedPredictor,
    jobs: &[JobSpec],
    profiles: &[JobProfile],
) -> Vec<LlcVulnerability> {
    jobs.iter()
        .zip(profiles)
        .map(|(j, p)| measure_llc_vulnerability(cfg, predictor, j, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizeConfig};
    use crate::profile::{profile_job, ProfileMethod};

    fn predictor(cfg: &MachineConfig) -> StagedPredictor {
        let mut ccfg = CharacterizeConfig::fast(cfg);
        ccfg.grid_points = 4;
        ccfg.micro_duration_s = 1.5;
        StagedPredictor::new(cfg, characterize(cfg, &ccfg))
    }

    #[test]
    fn dwt2d_is_vulnerable_streamcluster_is_not() {
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let dwt = kernels::with_input_scale(&kernels::by_name(&cfg, "dwt2d").unwrap(), 0.2);
        let sc = kernels::with_input_scale(&kernels::by_name(&cfg, "streamcluster").unwrap(), 0.2);
        let dwt_prof = profile_job(&cfg, &dwt, ProfileMethod::Analytic);
        let sc_prof = profile_job(&cfg, &sc, ProfileMethod::Analytic);
        let v_dwt = measure_llc_vulnerability(&cfg, &p, &dwt, &dwt_prof);
        let v_sc = measure_llc_vulnerability(&cfg, &p, &sc, &sc_prof);
        assert!(
            v_dwt.max_excess() > 0.5,
            "dwt2d must show large unexplained degradation, got {}",
            v_dwt.max_excess()
        );
        assert!(
            v_sc.max_excess() < 0.25,
            "streamcluster is bandwidth-explained, got {}",
            v_sc.max_excess()
        );
    }

    #[test]
    fn vulnerability_curve_is_nonlinear_for_dwt2d() {
        // The knee matters: the excess at 2.25 GB/s must be far below a
        // linear scale-down of the excess at 9 GB/s.
        let cfg = MachineConfig::ivy_bridge();
        let p = predictor(&cfg);
        let dwt = kernels::with_input_scale(&kernels::by_name(&cfg, "dwt2d").unwrap(), 0.2);
        let prof = profile_job(&cfg, &dwt, ProfileMethod::Analytic);
        let v = measure_llc_vulnerability(&cfg, &p, &dwt, &prof);
        let lo = v.extra_degradation(Device::Cpu, 2.25);
        let hi = v.extra_degradation(Device::Cpu, 9.0);
        assert!(
            lo < hi * 0.25 / (2.25 / 9.0) * 0.8,
            "low-pressure excess {lo} should sit well below linear from {hi}"
        );
    }

    #[test]
    fn extra_degradation_interpolates_and_clamps() {
        let v = LlcVulnerability {
            curve: PerDevice::new(
                vec![(2.25, 0.1), (4.5, 0.5), (9.0, 2.0)],
                vec![(2.25, 0.0), (4.5, 0.0), (9.0, 0.0)],
            ),
        };
        assert!((v.extra_degradation(Device::Cpu, 2.25) - 0.1).abs() < 1e-12);
        assert!((v.extra_degradation(Device::Cpu, 9.0) - 2.0).abs() < 1e-12);
        assert!(
            (v.extra_degradation(Device::Cpu, 20.0) - 2.0).abs() < 1e-12,
            "clamps"
        );
        // midpoint of the second segment
        let mid = v.extra_degradation(Device::Cpu, (2.25 + 4.5) / 2.0);
        assert!((mid - 0.3).abs() < 1e-12);
        // origin
        assert_eq!(v.extra_degradation(Device::Cpu, 0.0), 0.0);
        assert_eq!(v.extra_degradation(Device::Gpu, 9.0), 0.0);
        assert_eq!(
            LlcVulnerability::none().extra_degradation(Device::Cpu, 9.0),
            0.0
        );
    }
}
