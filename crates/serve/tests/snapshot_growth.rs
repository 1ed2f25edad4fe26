//! Snapshot size is set by the snapshot cadence, not by history.
//!
//! Each periodic snapshot lists only the jobs journal records named
//! since the previous one, so in a long run the snapshot lines stay the
//! same size instead of growing with every job ever admitted.

use corun_serve::{JobState, Json, LineRecord, Record, Service, ServiceConfig};
use std::path::PathBuf;

const JOBS: usize = 2_000;
const BATCH: &str = "srad x0.05 *17\nlud x0.05 *17\nhotspot x0.05 *16\n";
const PER_BATCH: usize = 50;

fn temp_journal() -> PathBuf {
    std::env::temp_dir().join(format!(
        "corun-snapshot-growth-{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn periodic_snapshots_do_not_grow_with_history() {
    let path = temp_journal();
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.machines = 2;
    cfg.queue_capacity = 2 * PER_BATCH;
    cfg.journal_path = Some(path.clone());
    let snapshot_every = cfg.snapshot_every;
    let svc = Service::start(cfg);
    // Batches keep the queue, which every snapshot carries whole, short.
    for _ in 0..JOBS / PER_BATCH {
        let ids = svc.submit_spec(BATCH).expect("submit");
        assert_eq!(ids.len(), PER_BATCH);
        svc.wait_idle();
    }
    let m = svc.metrics();
    assert_eq!(m.submitted, JOBS);
    assert!(
        svc.job_status(JOBS - 1)
            .is_some_and(|s| matches!(s.state, JobState::Done { .. })),
        "the last job did not finish"
    );
    svc.shutdown();
    drop(svc);

    let text = std::fs::read_to_string(&path).expect("journal");
    let snapshots: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("{\"t\":\"snapshot\""))
        .collect();
    // The last snapshot is the one shutdown forces; the rest are periodic.
    let periodic = &snapshots[..snapshots.len() - 1];
    assert!(
        periodic.len() >= 10,
        "only {} periodic snapshots",
        periodic.len()
    );
    for line in periodic {
        // A record names at most one job, so a snapshot lists about
        // `snapshot_every` jobs at most — never the 2,000 of history.
        let Ok(Some(Record::Snapshot { seq, state, .. })) = Record::from_json(line) else {
            panic!("not a snapshot record: {line}");
        };
        let doc = Json::parse(&state).expect("snapshot document");
        let listed = doc
            .get("jobs")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        assert!(
            listed <= 2 * snapshot_every,
            "snapshot at record {seq} lists {listed} jobs"
        );
    }
    let mut sizes: Vec<usize> = periodic.iter().map(|l| l.len()).collect();
    sizes.sort_unstable();
    let (median, largest) = (sizes[sizes.len() / 2], sizes[sizes.len() - 1]);
    assert!(
        largest <= 2 * median,
        "largest periodic snapshot {largest} B > 2x the median {median} B"
    );
    std::fs::remove_file(&path).ok();
}
