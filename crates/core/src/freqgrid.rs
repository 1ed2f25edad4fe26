//! Enumeration of power-cap-feasible frequency settings.
//!
//! Under a cap, the algorithm "traverses all possible frequency settings
//! that satisfy the power cap requirement" (paper Section IV-A.2). Because
//! power depends on which jobs run (activity differs), feasibility is a
//! property of a *(pair, setting)* combination, not of the setting alone.

use crate::model::{CoRunModel, JobId};
use apu_sim::Device;

/// Iterator-free enumeration of `(f_cpu, g_gpu)` level pairs whose predicted
/// pair power fits under `cap_w` for the given occupancy.
pub fn feasible_pair_settings(
    model: &dyn CoRunModel,
    cpu_job: JobId,
    gpu_job: JobId,
    cap_w: f64,
) -> Vec<(usize, usize)> {
    let kc = model.levels(Device::Cpu);
    let kg = model.levels(Device::Gpu);
    let mut out = Vec::new();
    for f in 0..kc {
        for g in 0..kg {
            if model.corun_power(Some((cpu_job, f)), Some((gpu_job, g))) <= cap_w {
                out.push((f, g));
            }
        }
    }
    out
}

/// The highest level at which `job` can run *alone* on `device` under the
/// cap; `None` if even the lowest level violates it.
pub fn best_solo_level(
    model: &dyn CoRunModel,
    job: JobId,
    device: Device,
    cap_w: f64,
) -> Option<usize> {
    let k = model.levels(device);
    (0..k)
        .rev()
        .find(|&f| solo_power(model, job, device, f) <= cap_w)
}

fn solo_power(model: &dyn CoRunModel, job: JobId, device: Device, f: usize) -> f64 {
    match device {
        Device::Cpu => model.corun_power(Some((job, f)), None),
        Device::Gpu => model.corun_power(None, Some((job, f))),
    }
}

/// The fastest solo execution of `job` on `device` under the cap:
/// `(level, time)`. With monotone power/time ladders this is the highest
/// feasible level, but the search is robust to non-monotone profiles.
pub fn best_solo_run(
    model: &dyn CoRunModel,
    job: JobId,
    device: Device,
    cap_w: f64,
) -> Option<(usize, f64)> {
    let k = model.levels(device);
    (0..k)
        .filter(|&f| solo_power(model, job, device, f) <= cap_w)
        .map(|f| (f, model.standalone(job, device, f)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The fastest solo execution of `job` across both devices under the cap:
/// `(device, level, time)`.
pub fn best_solo_placement(
    model: &dyn CoRunModel,
    job: JobId,
    cap_w: f64,
) -> Option<(Device, usize, f64)> {
    Device::ALL
        .iter()
        .filter_map(|&d| best_solo_run(model, job, d, cap_w).map(|(f, t)| (d, f, t)))
        .min_by(|a, b| a.2.total_cmp(&b.2))
}

/// Highest level of `job` on `device` given the co-runner is fixed at
/// `(co_job, co_level)` on the other device, such that the pair fits the
/// cap; `None` if no level fits.
pub fn best_level_against(
    model: &dyn CoRunModel,
    job: JobId,
    device: Device,
    co_job: JobId,
    co_level: usize,
    cap_w: f64,
) -> Option<usize> {
    let k = model.levels(device);
    (0..k)
        .rev()
        .find(|&f| pair_power(model, job, device, f, co_job, co_level) <= cap_w)
}

/// The level HCS's Step 3 runs `job` at on `device` against a co-runner
/// fixed at `(co_job, co_level)`: the cap-feasible level that "maximizes
/// performance", i.e. minimizes the job's own co-run time
/// `l(f) * (1 + d(f))`. Lowering the clock always lowers interference, so
/// interference is not what picks the level. Levels are scanned upward
/// and a higher one must be faster by more than 1e-12, so a near-tie keeps
/// the lower clock. `None` if no level fits the cap.
pub fn fastest_level_against(
    model: &dyn CoRunModel,
    job: JobId,
    device: Device,
    co_job: JobId,
    co_level: usize,
    cap_w: f64,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for f in 0..model.levels(device) {
        if pair_power(model, job, device, f, co_job, co_level) > cap_w {
            continue;
        }
        let t = model.corun_time(job, device, f, co_job, co_level);
        if best.is_none_or(|(_, bt)| t < bt - 1e-12) {
            best = Some((f, t));
        }
    }
    best.map(|(f, _)| f)
}

/// Package power with `job` at level `f` on `device` and the co-runner
/// at `co_level` on the other device.
fn pair_power(
    model: &dyn CoRunModel,
    job: JobId,
    device: Device,
    f: usize,
    co_job: JobId,
    co_level: usize,
) -> f64 {
    match device {
        Device::Cpu => model.corun_power(Some((job, f)), Some((co_job, co_level))),
        Device::Gpu => model.corun_power(Some((co_job, co_level)), Some((job, f))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_model::synthetic;

    #[test]
    fn no_cap_means_everything_feasible() {
        let m = synthetic(4, 5, 4);
        let all = feasible_pair_settings(&m, 0, 1, f64::INFINITY);
        assert_eq!(all.len(), 20);
    }

    #[test]
    fn tight_cap_prunes_high_levels() {
        let m = synthetic(4, 5, 4);
        let unconstrained = m.corun_power(Some((0, 4)), Some((1, 3)));
        let feas = feasible_pair_settings(&m, 0, 1, unconstrained - 0.1);
        assert!(feas.len() < 20);
        assert!(!feas.contains(&(4, 3)));
        assert!(feas.contains(&(0, 0)), "lowest levels always cheapest");
    }

    #[test]
    fn impossible_cap_empty() {
        let m = synthetic(4, 5, 4);
        assert!(feasible_pair_settings(&m, 0, 1, 0.1).is_empty());
        assert_eq!(best_solo_level(&m, 0, Device::Cpu, 0.1), None);
    }

    #[test]
    fn best_solo_level_is_highest_feasible() {
        let m = synthetic(4, 5, 4);
        let p3 = m.corun_power(Some((2, 3)), None);
        let lvl = best_solo_level(&m, 2, Device::Cpu, p3).unwrap();
        assert_eq!(lvl, 3);
        let all = best_solo_level(&m, 2, Device::Cpu, f64::INFINITY).unwrap();
        assert_eq!(all, 4);
    }

    #[test]
    fn best_solo_run_minimizes_time() {
        let m = synthetic(4, 5, 4);
        let (lvl, t) = best_solo_run(&m, 1, Device::Gpu, f64::INFINITY).unwrap();
        assert_eq!(lvl, 3);
        assert!((t - m.standalone(1, Device::Gpu, 3)).abs() < 1e-12);
    }

    #[test]
    fn best_solo_placement_picks_faster_device() {
        let m = synthetic(6, 5, 4);
        for j in 0..6 {
            let (d, f, t) = best_solo_placement(&m, j, f64::INFINITY).unwrap();
            let other = d.other();
            let t_other = m.standalone(j, other, m.levels(other) - 1);
            assert!(t <= t_other + 1e-12, "job {j} placed on slower device");
            assert_eq!(f, m.levels(d) - 1);
        }
    }

    #[test]
    fn best_level_against_respects_corunner() {
        let m = synthetic(4, 5, 4);
        // Co-runner at max GPU level eats budget; CPU level must drop.
        let cap = m.corun_power(Some((0, 2)), Some((1, 3)));
        let lvl = best_level_against(&m, 0, Device::Cpu, 1, 3, cap).unwrap();
        assert_eq!(lvl, 2);
        // With the co-runner at the lowest level there is more headroom.
        let lvl2 = best_level_against(&m, 0, Device::Cpu, 1, 0, cap).unwrap();
        assert!(lvl2 >= lvl);
    }
}
