//! Machine-configuration validation.
//!
//! Custom [`MachineConfig`]s (beyond the
//! shipped presets) are easy to get subtly wrong — a non-monotone frequency
//! table, a zero bandwidth, arbitration weights that starve a device.
//! `validate` checks every invariant the simulator and the algorithms rely
//! on and reports all violations at once.

use crate::config::MachineConfig;
use crate::device::Device;

/// A single validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigIssue {
    /// Which field/area is wrong.
    pub field: String,
    /// Human-readable problem description.
    pub problem: String,
}

impl std::fmt::Display for ConfigIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.problem)
    }
}

/// Validate a machine configuration; empty vector = valid.
pub fn validate(cfg: &MachineConfig) -> Vec<ConfigIssue> {
    let mut issues = Vec::new();
    let mut bad = |field: &str, problem: String| {
        issues.push(ConfigIssue {
            field: field.into(),
            problem,
        });
    };

    for d in Device::ALL {
        let t = cfg.freqs.table(d);
        let name = format!("freqs.{d}");
        if t.len() < 2 {
            bad(&name, "needs at least two DVFS levels".into());
        }
        if t.min_ghz() <= 0.0 {
            bad(
                &name,
                format!("non-positive base frequency {}", t.min_ghz()),
            );
        }
        let dev = cfg.device(d);
        let dn = format!("{d} params");
        if dev.gflops_per_ghz <= 0.0 {
            bad(&dn, "compute throughput must be positive".into());
        }
        if dev.bw_peak_gbps <= 0.0 {
            bad(&dn, "peak bandwidth must be positive".into());
        }
        if !(0.0..=1.0).contains(&dev.bw_freq_floor) {
            bad(
                &dn,
                format!("bw_freq_floor {} outside [0, 1]", dev.bw_freq_floor),
            );
        }
        if dev.idle_power_w < 0.0 || dev.dyn_power_w < 0.0 {
            bad(&dn, "negative power coefficient".into());
        }
        if dev.dyn_power_exp < 1.0 || dev.dyn_power_exp > 4.0 {
            bad(
                &dn,
                format!(
                    "dyn_power_exp {} outside the plausible 1..4",
                    dev.dyn_power_exp
                ),
            );
        }
        if !(0.0..=1.0).contains(&dev.stall_power_frac) {
            bad(
                &dn,
                format!("stall_power_frac {} outside [0, 1]", dev.stall_power_frac),
            );
        }
        if dev.bw_peak_gbps > cfg.memory.total_bw_gbps {
            bad(
                &dn,
                format!(
                    "device peak bandwidth {} exceeds controller capacity {}",
                    dev.bw_peak_gbps, cfg.memory.total_bw_gbps
                ),
            );
        }
    }

    let m = &cfg.memory;
    if m.total_bw_gbps <= 0.0 {
        bad("memory.total_bw_gbps", "must be positive".into());
    }
    if m.pressure_ref_gbps <= 0.0 {
        bad("memory.pressure_ref_gbps", "must be positive".into());
    }
    for d in Device::ALL {
        if *m.inflation_coeff.get(d) < 0.0 {
            bad("memory.inflation_coeff", format!("negative for {d}"));
        }
        if *m.inflation_exp.get(d) <= 0.0 {
            bad("memory.inflation_exp", format!("non-positive for {d}"));
        }
        if *m.arb_weight.get(d) <= 0.0 {
            bad(
                "memory.arb_weight",
                format!("non-positive for {d} (would starve it)"),
            );
        }
    }
    if m.llc_mib <= 0.0 {
        bad("memory.llc_mib", "must be positive".into());
    }

    if cfg.package.uncore_w < 0.0 {
        bad("package.uncore_w", "negative".into());
    }
    if cfg.multiprog.cs_overhead < 0.0 || cfg.multiprog.locality_penalty < 0.0 {
        bad("multiprog", "negative overhead".into());
    }
    if cfg.multiprog.max_cpu_slots == 0 {
        bad(
            "multiprog.max_cpu_slots",
            "must allow at least one job".into(),
        );
    }
    if cfg.tick_s <= 0.0 {
        bad("tick_s", "must be positive".into());
    }
    if cfg.power_sample_s < cfg.tick_s {
        bad(
            "power_sample_s",
            format!(
                "sample interval {} below tick {}",
                cfg.power_sample_s, cfg.tick_s
            ),
        );
    }

    issues
}

/// `Ok(cfg)` when valid, `Err(issues)` otherwise — for builder-style use.
pub fn validated(cfg: MachineConfig) -> Result<MachineConfig, Vec<ConfigIssue>> {
    let issues = validate(&cfg);
    if issues.is_empty() {
        Ok(cfg)
    } else {
        Err(issues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(validate(&MachineConfig::ivy_bridge()).is_empty());
        assert!(validate(&MachineConfig::kaveri()).is_empty());
        assert!(validated(MachineConfig::ivy_bridge()).is_ok());
    }

    #[test]
    fn detects_broken_memory_config() {
        let mut cfg = MachineConfig::ivy_bridge();
        cfg.memory.total_bw_gbps = -1.0;
        cfg.memory.arb_weight.cpu = 0.0;
        let issues = validate(&cfg);
        assert!(issues.iter().any(|i| i.field == "memory.total_bw_gbps"));
        assert!(issues.iter().any(|i| i.field == "memory.arb_weight"));
        // device peak now exceeds the (negative) capacity too
        assert!(
            issues.len() >= 3,
            "all problems reported at once: {issues:?}"
        );
        assert!(validated(cfg).is_err());
    }

    #[test]
    fn detects_bad_power_params() {
        let mut cfg = MachineConfig::ivy_bridge();
        cfg.cpu.stall_power_frac = 1.5;
        cfg.gpu.dyn_power_exp = 0.5;
        let issues = validate(&cfg);
        assert!(issues
            .iter()
            .any(|i| i.problem.contains("stall_power_frac")));
        assert!(issues.iter().any(|i| i.problem.contains("dyn_power_exp")));
    }

    #[test]
    fn detects_bad_timing() {
        let mut cfg = MachineConfig::ivy_bridge();
        cfg.power_sample_s = cfg.tick_s / 2.0;
        let issues = validate(&cfg);
        assert!(issues.iter().any(|i| i.field == "power_sample_s"));
    }

    #[test]
    fn issue_renders() {
        let i = ConfigIssue {
            field: "x".into(),
            problem: "broken".into(),
        };
        assert_eq!(i.to_string(), "x: broken");
    }
}
