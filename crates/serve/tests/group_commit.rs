//! The journal commits once per acknowledged reply, not once per record.
//!
//! Each job writes at least three records (`accept`, `dispatch`,
//! `done`), but only the submit's reply commits; the workers' records
//! become durable with the next reply's commit.

use corun_serve::{Service, ServiceConfig};
use std::path::PathBuf;

const SUBMITS: u64 = 300;
const SPECS: [&str; 3] = ["srad x0.05\n", "lud x0.05\n", "hotspot x0.05\n"];

fn temp_journal() -> PathBuf {
    std::env::temp_dir().join(format!("corun-group-commit-{}.jsonl", std::process::id()))
}

#[test]
fn commits_follow_replies_not_records() {
    let path = temp_journal();
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.machines = 2;
    cfg.queue_capacity = 2 * SUBMITS as usize;
    cfg.journal_path = Some(path.clone());
    let svc = Service::start(cfg);
    for n in 0..SUBMITS {
        let before = svc.metrics().journal_commits;
        let ids = svc
            .submit_spec(SPECS[n as usize % SPECS.len()])
            .expect("submit");
        assert_eq!(ids.len(), 1);
        let after = svc.metrics().journal_commits;
        assert!(after > before, "submit {n} was acknowledged uncommitted");
    }
    svc.wait_idle();
    let m = svc.metrics();
    assert_eq!(m.completed as u64, SUBMITS);
    assert!(
        m.journal_records * 2 >= 5 * SUBMITS,
        "{} records for {SUBMITS} jobs",
        m.journal_records
    );
    assert!(
        m.journal_commits <= SUBMITS + 8,
        "{} commits for {SUBMITS} submits ({} records)",
        m.journal_commits,
        m.journal_records
    );
    svc.shutdown();
    drop(svc);
    std::fs::remove_file(&path).ok();
}
