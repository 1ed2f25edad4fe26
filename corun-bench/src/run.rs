//! One run of one workload: what it runs with and what it measured.

use crate::trace::{Recorder, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Cold starts per run. `setup_s` is their median; the last one is the
/// system the run measures.
pub const SETUPS: usize = 25;

/// What one run runs with.
pub struct Env {
    /// A fresh, empty directory for the run's journals and caches.
    pub dir: PathBuf,
    /// Seeds the run's inputs (`--seed`).
    pub seed: u64,
    /// Length of the open-loop window (`--seconds`).
    pub seconds: f64,
    pub smoke: bool,
    pub tracer: Tracer,
}

impl Env {
    /// Start the system `SETUPS` times, each from a cold cache in a fresh
    /// subdirectory of the run's dir, timing each start with `start`.
    /// Every start but the last is torn down with `stop`; the last one is
    /// returned with the median start time.
    pub fn cold_start<T>(
        &self,
        mut start: impl FnMut(&Path) -> T,
        mut stop: impl FnMut(T),
    ) -> (T, f64) {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for i in 0..SETUPS {
            let dir = self.dir.join(format!("setup-{i}"));
            std::fs::create_dir_all(&dir).expect("create a set-up dir");
            let t0 = Instant::now();
            let system = start(&dir);
            times.push(t0.elapsed().as_secs_f64());
            if let Some(previous) = last.replace(system) {
                stop(previous);
            }
        }
        (
            last.expect("at least one set-up"),
            crate::stats::median(&times),
        )
    }

    /// The directory the last of [`Env::cold_start`]'s starts used.
    pub fn system_dir(&self) -> PathBuf {
        self.dir.join(format!("setup-{}", SETUPS - 1))
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Median cold start until the system accepts work.
    pub setup_s: f64,
    pub attempted: usize,
    /// Jobs that finished `Done`.
    pub done: usize,
    /// The measured window: first submission until the last job is seen
    /// terminal (for `offline-paper`, the summed batch times).
    pub wall_s: f64,
    /// Jobs per second, when a workload measures its rate other than as
    /// jobs done over the window.
    pub rate: Option<f64>,
    /// The workload's latency samples, one per job (for `offline-paper`,
    /// per batch).
    pub latencies_ms: Vec<f64>,
    /// How late the load generator issued each unit of work: after its
    /// due time (open loop) or after the previous reply (closed loop).
    pub gen_lag_ms: Vec<f64>,
    /// Failed output checks.
    pub violations: Vec<String>,
    /// Power-trace samples observed above the cap, and in all.
    pub cap_violations: usize,
    pub power_samples: usize,
    /// Simulated seconds advanced, summed over machines.
    pub sim_s: f64,
    /// Offline makespans, compared bit for bit across paths.
    pub makespans: Vec<f64>,
    /// Extra human-readable figures: (label, value, unit).
    pub notes: Vec<(String, f64, String)>,
    /// Per-layer values of a traced run.
    pub layers: BTreeMap<String, f64>,
    /// The traced run's spans and counters.
    pub recorder: Recorder,
}

impl Run {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    pub fn note(&mut self, label: &str, value: f64, unit: &str) {
        self.notes
            .push((label.to_string(), value, unit.to_string()));
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.rate
            .unwrap_or(self.done as f64 / self.wall_s.max(1e-9))
    }

    /// Jobs that did not finish `Done` (rejected, dead-lettered, lost).
    pub fn failed(&self) -> usize {
        self.attempted.saturating_sub(self.done)
    }

    /// Share of power samples at or under the cap.
    pub fn cap_ok_frac(&self) -> f64 {
        1.0 - self.cap_violations as f64 / self.power_samples.max(1) as f64
    }
}
