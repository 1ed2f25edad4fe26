//! Completion folding must not stall on a failed `job_phase` RPC.
//!
//! The coordinator sweeps a shard's outstanding jobs only when the
//! shard's terminal count moved (or a sweep is forced). A sweep that
//! breaks on a transport error has not seen the jobs after the failure;
//! if it still recorded the count, jobs already terminal would wait for
//! the count to move again — which, once the shard has finished
//! everything, it never does.

use corun_fleet::{
    Fleet, FleetConfig, JobPhase, LocalShard, ShardBackend, ShardMetrics, SubmitOutcome,
};
use corun_serve::ServiceConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A local shard whose first `job_phase` RPC fails, and whose metrics
/// are only reported once every submitted job is terminal, so the
/// terminal count is final from the first poll that sees any of it.
struct FlakyPhase {
    inner: LocalShard,
    phase_failures: Arc<AtomicUsize>,
}

impl ShardBackend for FlakyPhase {
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
        self.inner.submit(key, spec)
    }

    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
        if self.phase_failures.fetch_add(1, Ordering::SeqCst) == 0 {
            return Err("injected transport failure".into());
        }
        self.inner.job_phase(local_id)
    }

    fn metrics(&mut self) -> Result<ShardMetrics, String> {
        if let Some(service) = self.inner.service() {
            service.wait_idle();
        }
        self.inner.metrics()
    }

    fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        self.inner.set_cap(cap_w)
    }

    fn recover(&mut self, cap_w: f64) -> Result<(), String> {
        self.inner.recover(cap_w)
    }

    fn begin_shutdown(&mut self) {
        self.inner.begin_shutdown();
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

fn cache_dir() -> PathBuf {
    std::env::temp_dir().join(format!("corun-fold-sweep-{}", std::process::id()))
}

#[test]
fn a_failed_job_phase_forces_the_next_sweep() {
    const JOBS: usize = 6;
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut template = ServiceConfig::fast(&machine);
    template.characterization.grid_points = 3;
    template.characterization.micro_duration_s = 1.0;
    template.queue_capacity = 32;
    template.machines = 2;
    template.cache_dir = Some(cache_dir());
    let failures = Arc::new(AtomicUsize::new(0));
    let shard = FlakyPhase {
        inner: LocalShard::start(template),
        phase_failures: Arc::clone(&failures),
    };
    let mut fleet = Fleet::new(FleetConfig::new(1, 2, 20.0), vec![Box::new(shard)]).expect("fleet");
    fleet.submit_spec("srad x0.05 *6\n").expect("submit");

    // Round 1 submits every job; round 2 sees them all terminal, and its
    // sweep breaks on the injected failure before folding any.
    fleet.pump();
    fleet.pump();
    assert_eq!(
        failures.load(Ordering::SeqCst),
        1,
        "the sweep ran and failed"
    );
    let m = fleet.metrics();
    assert_eq!(m.shards[0].completed, JOBS, "the shard finished everything");
    assert_eq!(m.jobs_done, 0, "the failed sweep folded nothing");

    // The shard's count never moves again, yet the next rounds fold all.
    for _ in 0..3 {
        fleet.pump();
    }
    let m = fleet.metrics();
    assert_eq!(m.shards[0].completed, JOBS);
    assert_eq!(m.jobs_done, JOBS, "jobs stalled behind the failed sweep");
    assert!(m.drained());
    fleet.begin_shutdown();
    fleet.finish();
    std::fs::remove_dir_all(cache_dir()).ok();
}
