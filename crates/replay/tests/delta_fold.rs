//! Snapshot deltas, end to end: a real journaled daemon run under a
//! chaos plan (requeues, dead-letters, a machine crash), cut as a kill -9
//! would leave it and recovered, must write snapshots that fold back
//! into exactly the state replay reproduces.
//!
//! Properties:
//!
//! 1. At every snapshot, folding the snapshots recorded so far, in order
//!    from an empty state, equals replaying the records before it.
//! 2. Each snapshot lists exactly the jobs the records since the previous
//!    one name, so the first one and the one after recovery are full.
//! 3. A job tampered inside one delta is the one job `--diff` names.

use corun_core::{JobId, RetryPolicy};
use corun_replay::{check_terminal, replay_journal, replay_records, ReplayOptions};
use corun_serve::{
    apply_state, encode_state, scan_journal, JobState, Record, Service, ServiceConfig, ServiceState,
};
use std::path::{Path, PathBuf};

/// Requeues (job failures and the crash's evictions), dead-letters once
/// the single retry is spent, and machine 0 stopping early on.
const CHAOS: &str = "@chaos seed=11 job-fail=0.4 crash=0:0.5\n";
const SPEC: &str = "srad x0.05 *4\nlud x0.05 *4\nhotspot x0.05 *4\n";

fn temp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "corun-delta-fold-{}-{tag}.jsonl",
        std::process::id()
    ))
}

fn chaos_cfg(path: &Path, recover: bool) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.machines = 3;
    cfg.queue_capacity = 32;
    cfg.journal_path = Some(path.to_path_buf());
    cfg.recover = recover;
    cfg.snapshot_every = 4;
    cfg.fault_plan = Some(apu_sim::FaultPlan::parse(CHAOS).expect("chaos plan"));
    cfg.retry = RetryPolicy {
        max_retries: 1,
        backoff_base_s: 0.01,
        backoff_max_s: 0.02,
    };
    cfg
}

/// Submit `spec`, wait until every job is terminal, and shut down.
/// Returns the live terminal fingerprint.
fn drive(svc: &Service, spec: &str) -> u64 {
    for id in svc.submit_spec(spec).expect("submit") {
        let st = svc.wait_job(id).expect("known id");
        assert!(
            matches!(
                st.state,
                JobState::Done { .. } | JobState::DeadLetter { .. } | JobState::Rejected
            ),
            "job {id} not terminal: {st:?}"
        );
    }
    svc.wait_idle();
    svc.shutdown();
    svc.state_fingerprint()
}

/// Run, cut the journal to a record-boundary prefix (what a kill -9
/// between fsyncs leaves), recover, and run more work on top.
fn killed_and_recovered_run(path: &Path) -> u64 {
    drive(&Service::start(chaos_cfg(path, false)), SPEC);
    let text = std::fs::read_to_string(path).expect("journal");
    let lines: Vec<&str> = text.lines().collect();
    let keep = lines.len() * 3 / 5;
    std::fs::write(path, lines[..keep].join("\n") + "\n").expect("cut journal");
    let svc = Service::start(chaos_cfg(path, true));
    assert!(svc.job_count() > 0, "the cut journal must recover");
    drive(&svc, "srad x0.05 *3\nlud x0.05 *3\n")
}

/// The snapshot documents of `records`, with their journal indices.
fn snapshots(records: &[Record]) -> Vec<(usize, &str)> {
    records
        .iter()
        .enumerate()
        .filter_map(|(k, r)| match r {
            Record::Snapshot { state, .. } => Some((k, state.as_str())),
            _ => None,
        })
        .collect()
}

/// The jobs the records between the snapshot before index `at` and `at`
/// name: what the snapshot at `at` must list.
fn named_since_last_snapshot(records: &[Record], at: usize) -> Vec<JobId> {
    let from = records[..at]
        .iter()
        .rposition(|r| matches!(r, Record::Snapshot { .. }))
        .map_or(0, |k| k + 1);
    records[from..at]
        .iter()
        .flat_map(Record::touched_jobs)
        .collect()
}

#[test]
fn deltas_fold_to_the_replayed_state_across_a_kill_and_recovery() {
    let path = temp_journal("fold");
    let live = killed_and_recovered_run(&path);

    let mut outcome = replay_journal(&path, &ReplayOptions::default());
    assert!(outcome.is_clean(), "{}", outcome.report.render_human());
    assert!(check_terminal(&mut outcome, live, "live service"));

    let records = scan_journal(&path).records;
    for kind in ["requeue", "dead", "evict", "recovered"] {
        let seen = records.iter().any(|r| {
            matches!(
                (kind, r),
                ("requeue", Record::Requeue { .. })
                    | ("dead", Record::Dead { .. })
                    | ("evict", Record::Evict { .. })
                    | ("recovered", Record::Recovered { .. })
            )
        });
        assert!(seen, "the run never wrote a `{kind}` record");
    }

    let snaps = snapshots(&records);
    assert!(snaps.len() >= 4, "only {} snapshots", snaps.len());
    let mut folded = ServiceState::new(0);
    let mut deltas = 0;
    for &(k, doc) in &snaps {
        let replayed = replay_records(&records[..k], &ReplayOptions::default()).state;
        // 2. The daemon listed exactly the jobs named since the last one.
        let named = named_since_last_snapshot(&records, k);
        let mut listed = named.clone();
        listed.sort_unstable();
        listed.dedup();
        let first = k == snaps[0].0;
        if first || matches!(records[k - 1], Record::Recovered { .. }) {
            assert_eq!(listed.len(), replayed.jobs().len(), "record {k}: not full");
        } else if listed.len() < replayed.jobs().len() {
            deltas += 1;
        }
        assert_eq!(
            doc,
            encode_state(&replayed, named),
            "snapshot at record {k} lists other jobs than its records name"
        );
        // 1. The fold so far is the replayed state.
        apply_state(&mut folded, doc).expect("snapshot folds");
        assert_eq!(folded, replayed, "fold differs at record {k}");
    }
    assert!(deltas > 0, "no snapshot was a delta");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_job_tampered_in_one_delta_is_what_diff_names() {
    let path = temp_journal("tamper");
    killed_and_recovered_run(&path);
    let mut records = scan_journal(&path).records;

    // A late delta that lists at least one job.
    let (at, listed) = snapshots(&records)
        .into_iter()
        .rev()
        .skip(1)
        .map(|(k, _)| (k, named_since_last_snapshot(&records, k)))
        .find(|(_, named)| !named.is_empty())
        .expect("a delta listing jobs");
    let mut recorded = replay_records(&records[..at], &ReplayOptions::default()).state;
    let victim = listed[0];
    let mut job = recorded.jobs()[victim].clone();
    job.retries += 7;
    recorded.replace_job(victim, job).unwrap();
    let Record::Snapshot {
        fingerprint, state, ..
    } = &mut records[at]
    else {
        unreachable!()
    };
    *state = encode_state(&recorded, listed);
    *fingerprint = recorded.fingerprint();

    let outcome = replay_records(
        &records,
        &ReplayOptions {
            until: None,
            diff: true,
        },
    );
    assert!(outcome.report.has(corun_verify::Code::Rpl001));
    assert_eq!(outcome.records_applied, at);
    assert_eq!(outcome.diffs.len(), 1, "{:?}", outcome.diffs);
    assert!(
        outcome.diffs[0].starts_with(&format!("job {victim}:")),
        "{:?}",
        outcome.diffs
    );
    std::fs::remove_file(&path).ok();
}
