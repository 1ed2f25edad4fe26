//! The co-run model abstraction the scheduling algorithms consume.
//!
//! Section IV of the paper assumes "the availability of accurate co-run
//! performance and power models at each frequency level": the standalone
//! times `l_{i,p,f}`, the co-run degradations `d_{i,p,f}^{j,g}`, and pair
//! power. [`CoRunModel`] is that interface; [`TableModel`] is a dense
//! materialization of it (filled either from the predictive models or from
//! ground-truth measurements, which is how the algorithms stay agnostic to
//! where the numbers come from).

use apu_sim::Device;
use serde::{Deserialize, Serialize};

/// Identifier of a job within a batch: its index.
pub type JobId = usize;

/// Everything the co-scheduling algorithms need to know about a batch.
///
/// Degradations are *fractions* (0.25 = 25% slower). The convention for
/// [`CoRunModel::degradation`] is: job `i` runs on `device` at level
/// `f_own` of that device's ladder while job `j` runs on the *other*
/// device at level `g_other` of the other ladder.
pub trait CoRunModel {
    /// Number of jobs in the batch.
    fn len(&self) -> usize;

    /// Whether the batch is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Job name (diagnostics only).
    fn name(&self, i: JobId) -> &str;

    /// The class of job `i`: jobs of one class are the same program, so
    /// every method here but [`CoRunModel::name`] answers the same for
    /// any of them, in either role of [`CoRunModel::degradation`].
    /// Classes are numbered densely in order of first appearance. The
    /// default puts each job in a class of its own.
    fn class(&self, i: JobId) -> usize {
        i
    }

    /// Number of frequency levels on `device`.
    fn levels(&self, device: Device) -> usize;

    /// `l_{i,p,f}`: standalone time of job `i` on `device` at level `f`.
    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64;

    /// `d_{i,p,f}^{j,g}`: fractional degradation of job `i` on `device` at
    /// level `f_own` when job `j` runs on the other device at `g_other`.
    fn degradation(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64;

    /// Package power when job `i` runs alone on `device` at level `f`.
    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64;

    /// Package power with both devices idle.
    fn idle_power(&self) -> f64;

    /// Package power for an arbitrary occupancy: an optional `(job, level)`
    /// on each device. The default composes standalone powers the way the
    /// paper's power model does (sum minus double-counted idle).
    fn corun_power(&self, cpu: Option<(JobId, usize)>, gpu: Option<(JobId, usize)>) -> f64 {
        match (cpu, gpu) {
            (Some((i, f)), Some((j, g))) => {
                self.solo_power(i, Device::Cpu, f) + self.solo_power(j, Device::Gpu, g)
                    - self.idle_power()
            }
            (Some((i, f)), None) => self.solo_power(i, Device::Cpu, f),
            (None, Some((j, g))) => self.solo_power(j, Device::Gpu, g),
            (None, None) => self.idle_power(),
        }
    }

    /// Co-run time of job `i`: `l * (1 + d)`.
    fn corun_time(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64 {
        self.standalone(i, device, f_own) * (1.0 + self.degradation(i, device, f_own, j, g_other))
    }
}

/// A dense, owned co-run model.
///
/// Layout: `standalone[i][device][level]`, `deg` holds the CPU-side and
/// GPU-side degradation tables for every ordered pair and level pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableModel {
    names: Vec<String>,
    k_cpu: usize,
    k_gpu: usize,
    /// `standalone_cpu[i * k_cpu + f]`
    standalone_cpu: Vec<f64>,
    /// `standalone_gpu[i * k_gpu + g]`
    standalone_gpu: Vec<f64>,
    /// degradation of CPU job `i` at `f` against GPU job `j` at `g`:
    /// `deg_cpu[((i * n + j) * k_cpu + f) * k_gpu + g]`
    deg_cpu: Vec<f64>,
    /// degradation of GPU job `i` at `g` against CPU job `j` at `f`:
    /// `deg_gpu[((i * n + j) * k_gpu + g) * k_cpu + f]`
    deg_gpu: Vec<f64>,
    /// `power_cpu[i * k_cpu + f]`: solo package power
    power_cpu: Vec<f64>,
    /// `power_gpu[i * k_gpu + g]`
    power_gpu: Vec<f64>,
    idle_power_w: f64,
}

impl TableModel {
    /// Build a table model by evaluating closures over the full index space.
    ///
    /// * `standalone(i, device, level)`
    /// * `degradation(i, device, f_own, j, g_other)` — same convention as
    ///   the trait
    /// * `solo_power(i, device, level)`
    pub fn build(
        names: Vec<String>,
        k_cpu: usize,
        k_gpu: usize,
        idle_power_w: f64,
        mut standalone: impl FnMut(JobId, Device, usize) -> f64,
        mut degradation: impl FnMut(JobId, Device, usize, JobId, usize) -> f64,
        mut solo_power: impl FnMut(JobId, Device, usize) -> f64,
    ) -> Self {
        let n = names.len();
        assert!(k_cpu >= 1 && k_gpu >= 1);
        let mut standalone_cpu = vec![0.0; n * k_cpu];
        let mut standalone_gpu = vec![0.0; n * k_gpu];
        let mut power_cpu = vec![0.0; n * k_cpu];
        let mut power_gpu = vec![0.0; n * k_gpu];
        for i in 0..n {
            for f in 0..k_cpu {
                standalone_cpu[i * k_cpu + f] = standalone(i, Device::Cpu, f);
                power_cpu[i * k_cpu + f] = solo_power(i, Device::Cpu, f);
            }
            for g in 0..k_gpu {
                standalone_gpu[i * k_gpu + g] = standalone(i, Device::Gpu, g);
                power_gpu[i * k_gpu + g] = solo_power(i, Device::Gpu, g);
            }
        }
        let mut deg_cpu = vec![0.0; n * n * k_cpu * k_gpu];
        let mut deg_gpu = vec![0.0; n * n * k_gpu * k_cpu];
        for i in 0..n {
            for j in 0..n {
                for f in 0..k_cpu {
                    for g in 0..k_gpu {
                        deg_cpu[((i * n + j) * k_cpu + f) * k_gpu + g] =
                            degradation(i, Device::Cpu, f, j, g);
                        deg_gpu[((i * n + j) * k_gpu + g) * k_cpu + f] =
                            degradation(i, Device::Gpu, g, j, f);
                    }
                }
            }
        }
        TableModel {
            names,
            k_cpu,
            k_gpu,
            standalone_cpu,
            standalone_gpu,
            deg_cpu,
            deg_gpu,
            power_cpu,
            power_gpu,
            idle_power_w,
        }
    }
}

impl CoRunModel for TableModel {
    fn len(&self) -> usize {
        self.names.len()
    }

    fn name(&self, i: JobId) -> &str {
        &self.names[i]
    }

    fn levels(&self, device: Device) -> usize {
        match device {
            Device::Cpu => self.k_cpu,
            Device::Gpu => self.k_gpu,
        }
    }

    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
        match device {
            Device::Cpu => self.standalone_cpu[i * self.k_cpu + f],
            Device::Gpu => self.standalone_gpu[i * self.k_gpu + g_idx(f)],
        }
    }

    fn degradation(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64 {
        let n = self.names.len();
        match device {
            Device::Cpu => self.deg_cpu[((i * n + j) * self.k_cpu + f_own) * self.k_gpu + g_other],
            Device::Gpu => self.deg_gpu[((i * n + j) * self.k_gpu + f_own) * self.k_cpu + g_other],
        }
    }

    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
        match device {
            Device::Cpu => self.power_cpu[i * self.k_cpu + f],
            Device::Gpu => self.power_gpu[i * self.k_gpu + f],
        }
    }

    fn idle_power(&self) -> f64 {
        self.idle_power_w
    }
}

#[inline]
fn g_idx(g: usize) -> usize {
    g
}

#[cfg(test)]
pub(crate) mod test_model {
    use super::*;

    /// A tiny synthetic model for algorithm tests: `n` jobs, `kc`/`kg`
    /// levels. Standalone time scales inversely with level; degradation is
    /// proportional to the product of both jobs' "memory weights"; power is
    /// linear in levels.
    pub fn synthetic(n: usize, kc: usize, kg: usize) -> TableModel {
        // Per-job character: (cpu base time, gpu base time, memory weight)
        let base: Vec<(f64, f64, f64)> = (0..n)
            .map(|i| {
                let phase = i as f64 * 0.7;
                (
                    30.0 + 25.0 * (phase.sin() + 1.0),
                    25.0 + 20.0 * (phase.cos() + 1.0),
                    0.15 + 0.8 * ((i * 37 % 10) as f64 / 10.0),
                )
            })
            .collect();
        let names = (0..n).map(|i| format!("job{i}")).collect();
        let b2 = base.clone();
        let b3 = base.clone();
        TableModel::build(
            names,
            kc,
            kg,
            4.5,
            move |i, d, f| {
                let (tc, tg, _) = base[i];
                let (t, k) = match d {
                    Device::Cpu => (tc, kc),
                    Device::Gpu => (tg, kg),
                };
                // frequency scaling: lowest level is ~2.2x slower
                let rel = 0.45 + 0.55 * f as f64 / (k - 1) as f64;
                t / rel
            },
            move |i, _d, _f, j, _g| {
                let wi = b2[i].2;
                let wj = b2[j].2;
                (wi * wj * 0.6).min(0.9)
            },
            move |i, d, f| {
                let w = b3[i].2;
                let k = match d {
                    Device::Cpu => kc,
                    Device::Gpu => kg,
                };
                let rel = (f as f64 + 1.0) / k as f64;
                4.5 + (3.0 + 6.0 * w) * rel * rel + 4.0 * rel
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::test_model::synthetic;
    use super::*;

    #[test]
    fn table_roundtrip() {
        let m = synthetic(4, 6, 5);
        assert_eq!(m.len(), 4);
        assert_eq!(m.levels(Device::Cpu), 6);
        assert_eq!(m.levels(Device::Gpu), 5);
        assert_eq!(m.name(2), "job2");
        assert!(!m.is_empty());
    }

    #[test]
    fn standalone_monotone_in_level() {
        let m = synthetic(3, 8, 6);
        for i in 0..3 {
            for d in Device::ALL {
                for f in 1..m.levels(d) {
                    assert!(m.standalone(i, d, f) < m.standalone(i, d, f - 1));
                }
            }
        }
    }

    #[test]
    fn corun_time_includes_degradation() {
        let m = synthetic(3, 4, 4);
        let l = m.standalone(0, Device::Cpu, 3);
        let d = m.degradation(0, Device::Cpu, 3, 1, 2);
        assert!((m.corun_time(0, Device::Cpu, 3, 1, 2) - l * (1.0 + d)).abs() < 1e-12);
    }

    #[test]
    fn corun_power_composition() {
        let m = synthetic(3, 4, 4);
        let p = m.corun_power(Some((0, 3)), Some((1, 2)));
        let expect =
            m.solo_power(0, Device::Cpu, 3) + m.solo_power(1, Device::Gpu, 2) - m.idle_power();
        assert!((p - expect).abs() < 1e-12);
        assert_eq!(m.corun_power(None, None), m.idle_power());
        assert_eq!(
            m.corun_power(Some((2, 1)), None),
            m.solo_power(2, Device::Cpu, 1)
        );
    }

    #[test]
    fn degradation_table_orientation() {
        // deg(i on CPU at f vs j at g) must be retrievable consistently with
        // the build closure's arguments.
        let names = vec!["a".into(), "b".into()];
        let m = TableModel::build(
            names,
            3,
            2,
            4.0,
            |_i, _d, _f| 10.0,
            |i, d, f_own, j, g_other| {
                // encode arguments uniquely
                (i * 1000 + j * 100 + f_own * 10 + g_other) as f64
                    + match d {
                        Device::Cpu => 0.0,
                        Device::Gpu => 0.5,
                    }
            },
            |_i, _d, _f| 5.0,
        );
        assert_eq!(m.degradation(1, Device::Cpu, 2, 0, 1), 1021.0);
        assert_eq!(m.degradation(0, Device::Gpu, 1, 1, 2), 112.5);
    }
}
