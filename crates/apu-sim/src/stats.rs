//! Post-run statistics over a [`RunReport`]:
//! device utilization, concurrency, and energy accounting.

use crate::device::{Device, PerDevice};
use crate::engine::RunReport;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Per-device busy time (time with at least one job resident), seconds.
    pub busy_s: PerDevice<f64>,
    /// Per-device utilization (`busy / makespan`), 0..1.
    pub utilization: PerDevice<f64>,
    /// Time with *both* devices busy (co-run time), seconds.
    pub corun_s: f64,
    /// Fraction of the makespan spent co-running.
    pub corun_frac: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Mean package power, watts.
    pub mean_power_w: f64,
    /// Jobs completed.
    pub jobs: usize,
}

/// Compute statistics from a run report.
pub fn run_stats(report: &RunReport) -> RunStats {
    let makespan = report.makespan_s;
    // Sweep-line over job intervals to get busy and co-run time.
    let mut events: Vec<(f64, Device, i32)> = Vec::with_capacity(report.records.len() * 2);
    for r in &report.records {
        events.push((r.start_s, r.device, 1));
        events.push((r.end_s, r.device, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));

    let mut depth = PerDevice::new(0i32, 0i32);
    let mut busy = PerDevice::new(0.0_f64, 0.0_f64);
    let mut corun = 0.0;
    let mut prev_t = 0.0;
    for (t, dev, delta) in events {
        let dt = t - prev_t;
        if dt > 0.0 {
            for d in Device::ALL {
                if *depth.get(d) > 0 {
                    *busy.get_mut(d) += dt;
                }
            }
            if depth.cpu > 0 && depth.gpu > 0 {
                corun += dt;
            }
        }
        *depth.get_mut(dev) += delta;
        prev_t = t;
    }

    let utilization = PerDevice::from_fn(|d| {
        if makespan > 0.0 {
            busy.get(d) / makespan
        } else {
            0.0
        }
    });

    RunStats {
        makespan_s: makespan,
        busy_s: busy,
        utilization,
        corun_s: corun,
        corun_frac: if makespan > 0.0 {
            corun / makespan
        } else {
            0.0
        },
        energy_j: report.trace.energy_j(),
        mean_power_w: report.trace.mean_w(),
        jobs: report.records.len(),
    }
}

impl std::fmt::Display for RunStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "makespan {:.1}s | {} jobs | cpu util {:.0}% | gpu util {:.0}% | \
             co-run {:.0}% | energy {:.0} J | mean power {:.1} W",
            self.makespan_s,
            self.jobs,
            self.utilization.cpu * 100.0,
            self.utilization.gpu * 100.0,
            self.corun_frac * 100.0,
            self.energy_j,
            self.mean_power_w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::engine::{run_pair, run_solo};
    use crate::governor::NullGovernor;
    use crate::work::{single_phase_job, PhaseWork};

    fn phase(flops: f64) -> PhaseWork {
        PhaseWork {
            flops,
            bytes: 0.0,
            cpu_eff: 1.0,
            gpu_eff: 1.0,
            llc_footprint_mib: 64.0,
            llc_sensitivity: 0.0,
            llc_pressure: 0.0,
            llc_miss_bw_gbps: 0.0,
            overlap: 0.2,
        }
    }

    #[test]
    fn solo_run_uses_one_device() {
        let cfg = MachineConfig::ivy_bridge();
        let job = single_phase_job("a", phase(450.0));
        // run_solo lacks a report; use run_pair with a trivial partner? No:
        // drive the engine via run_pair of one real and a tiny job.
        let tiny = single_phase_job("b", phase(1.0));
        let mut gov = NullGovernor;
        let pair = run_pair(&cfg, &job, &tiny, cfg.freqs.max_setting(), &mut gov).unwrap();
        let _ = pair;
        let out = run_solo(&cfg, &job, Device::Cpu, cfg.freqs.max_setting()).unwrap();
        assert!(out.time_s > 0.0);
    }

    #[test]
    fn pair_stats_account_corun_overlap() {
        let cfg = MachineConfig::ivy_bridge();
        let a = single_phase_job("a", phase(450.0)); // 5 s on CPU
        let b = single_phase_job("b", phase(2500.0)); // 10 s on GPU
        let mut gov = NullGovernor;
        let engine = crate::engine::Engine::new(&cfg);
        struct P {
            a: Option<std::sync::Arc<crate::work::JobSpec>>,
            b: Option<std::sync::Arc<crate::work::JobSpec>>,
        }
        impl crate::engine::Dispatcher for P {
            fn next(
                &mut self,
                d: Device,
                _n: f64,
                _c: &crate::engine::DispatchCtx,
            ) -> crate::engine::Dispatch {
                let slot = match d {
                    Device::Cpu => &mut self.a,
                    Device::Gpu => &mut self.b,
                };
                match slot.take() {
                    Some(j) => crate::engine::Dispatch::Run(crate::engine::DispatchJob {
                        job: j,
                        tag: d.index(),
                        set_freq: None,
                    }),
                    None => {
                        if self.a.is_none() && self.b.is_none() {
                            crate::engine::Dispatch::Drained
                        } else {
                            crate::engine::Dispatch::Idle
                        }
                    }
                }
            }
        }
        let mut disp = P {
            a: Some(std::sync::Arc::new(a)),
            b: Some(std::sync::Arc::new(b)),
        };
        let report = engine
            .run(
                &mut disp,
                &mut gov,
                &crate::engine::RunOptions::new(cfg.freqs.max_setting()),
            )
            .unwrap();
        let stats = run_stats(&report);
        assert_eq!(stats.jobs, 2);
        // CPU job ends around 5 s, GPU around 10 s: co-run ~5 s, makespan ~10.
        assert!(
            (stats.makespan_s - 10.0).abs() < 0.3,
            "{}",
            stats.makespan_s
        );
        assert!((stats.corun_s - 5.0).abs() < 0.4, "{}", stats.corun_s);
        assert!(stats.utilization.gpu > 0.95);
        assert!((stats.utilization.cpu - 0.5).abs() < 0.1);
        assert!(stats.corun_frac > 0.4 && stats.corun_frac < 0.6);
        assert!(stats.energy_j > 0.0);
        let text = stats.to_string();
        assert!(text.contains("makespan"));
    }

    #[test]
    fn empty_report_is_all_zeroes() {
        let report = RunReport {
            makespan_s: 0.0,
            records: vec![],
            trace: crate::power::PowerTrace::new(1.0),
            final_setting: crate::freq::FreqSetting::new(0, 0),
        };
        let s = run_stats(&report);
        assert_eq!(s.jobs, 0);
        assert_eq!(s.corun_frac, 0.0);
        assert_eq!(s.utilization.cpu, 0.0);
    }
}
