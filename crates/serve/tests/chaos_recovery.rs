//! Crash-safety properties of the journal + recovery path.
//!
//! The central property: killing the daemon after *any* prefix of the
//! journal and restarting with `recover` loses no job and re-dispatches
//! no completed job — the recovered end state equals the uninterrupted
//! one. Truncation points are sampled both at record boundaries (a clean
//! kill between fsyncs) and at arbitrary bytes (a torn tail mid-write).

use corun_core::RetryPolicy;
use corun_serve::journal::{replay, scan_journal, Disposition};
use corun_serve::{JobState, Record, Service, ServiceConfig, JOURNAL_FORMAT_VERSION};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

fn temp_journal(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "corun-chaos-recovery-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// Where recovery keeps a journal it refused.
fn refused_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".refused");
    PathBuf::from(name)
}

fn journaled_cfg(path: &Path, recover: bool) -> ServiceConfig {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 32;
    cfg.journal_path = Some(path.to_path_buf());
    cfg.recover = recover;
    cfg
}

/// Run a journaled service over `spec` to completion and return the
/// journal bytes it left behind.
fn run_and_capture(path: &Path, spec: &str) -> Vec<u8> {
    let svc = Service::start(journaled_cfg(path, false));
    let ids = svc.submit_spec(spec).expect("submit");
    for &id in &ids {
        let st = svc.wait_job(id).expect("known id");
        assert!(matches!(st.state, JobState::Done { .. }), "{st:?}");
    }
    svc.shutdown();
    drop(svc);
    std::fs::read(path).expect("journal bytes")
}

/// Restart from whatever is at `path` and check the invariants: no
/// accepted job is lost (all reach a terminal state), and no job the
/// journal already records as Done is ever dispatched again.
fn recover_and_check(path: &Path) {
    // What does the truncated journal itself say?
    let scan = scan_journal(path);
    let (expected, replay_report) = replay(&scan.records);
    let wholesale_abandon = scan.report.has_errors() || replay_report.has_errors();

    let before = std::fs::read(path).expect("journal bytes");
    let svc = Service::start(journaled_cfg(path, true));
    if wholesale_abandon {
        assert_eq!(
            svc.job_count(),
            0,
            "an unreplayable journal must start fresh, not half-recovered"
        );
        svc.shutdown();
        // The refused bytes survive beside the fresh journal.
        if !before.is_empty() {
            let refused = refused_path(path);
            assert_eq!(std::fs::read(&refused).expect("refused journal"), before);
            std::fs::remove_file(refused).ok();
        }
        return;
    }
    assert_eq!(svc.job_count(), expected.jobs.len(), "no job may be lost");
    // Every journaled job must reach a terminal state after recovery; a
    // job already Done must keep its exact completion and stay at one
    // dispatch (zero double-dispatch).
    for (id, rj) in expected.jobs.iter().enumerate() {
        let st = svc.wait_job(id).expect("recovered id");
        match &rj.disposition {
            Disposition::Done { end_s, .. } => {
                match st.state {
                    JobState::Done {
                        end_s: recovered, ..
                    } => assert_eq!(recovered, *end_s, "job {id}: completion must be verbatim"),
                    other => panic!("job {id} lost its completion: {other:?}"),
                }
                assert_eq!(st.dispatches, 1, "job {id} was re-dispatched after Done");
            }
            Disposition::Pending => {
                // In-flight or queued at the kill: must be re-run to Done.
                assert!(
                    matches!(st.state, JobState::Done { .. }),
                    "pending job {id} must complete after recovery: {:?}",
                    st.state
                );
            }
            Disposition::Rejected => assert_eq!(st.state, JobState::Rejected),
            Disposition::Dead { .. } => {
                assert!(matches!(st.state, JobState::DeadLetter { .. }));
            }
        }
    }
    svc.wait_idle();
    let m = svc.metrics();
    assert_eq!(
        m.completed + m.dead_lettered + m.rejected,
        svc.job_count(),
        "metrics must balance after recovery"
    );
    assert_eq!(m.queue_depth, 0);
    assert!(m.worker_error.is_none(), "{:?}", m.worker_error);
    svc.shutdown();
}

proptest! {
    // Each case runs two full service lifecycles (characterization +
    // simulation + recovery), so keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Kill at any record boundary: replaying the journal prefix must
    /// reproduce exactly the completed work and finish the rest.
    #[test]
    fn kill_at_any_record_boundary_loses_nothing(
        njobs in 1usize..4,
        pick in 0usize..10_000,
    ) {
        let path = temp_journal("boundary");
        let bytes = run_and_capture(&path, &format!("srad x0.05 *{njobs}\nlud x0.05\n"));

        // Record boundaries: after each newline (a kill between fsyncs).
        let boundaries: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        prop_assert!(!boundaries.is_empty());
        let cut = boundaries[pick % boundaries.len()];
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        recover_and_check(&path);
        std::fs::remove_file(&path).ok();
    }

    /// Kill mid-record: a torn JSON tail is dropped (SRV007 warning), the
    /// intact prefix still replays, nothing is lost.
    #[test]
    fn kill_at_any_byte_tolerates_torn_tail(
        njobs in 1usize..3,
        pick in 0usize..10_000,
    ) {
        let path = temp_journal("torn");
        let bytes = run_and_capture(&path, &format!("hotspot x0.05 *{njobs}\n"));
        prop_assert!(bytes.len() > 2);
        // Any byte offset except 0 (an empty file is the fresh-start case,
        // covered separately below).
        let cut = 1 + pick % (bytes.len() - 1);
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        recover_and_check(&path);
        std::fs::remove_file(&path).ok();
    }
}

/// Power loss: only committed records survive. Every acknowledged reply
/// commits first, so the journal's length when a call returns is at or
/// past a commit boundary. A journal cut at each of those lengths must
/// recover every id acknowledged by then, and a keyed batch's keys must
/// still deduplicate.
#[test]
fn power_loss_at_each_commit_boundary_keeps_every_ack() {
    let path = temp_journal("powerloss");
    let svc = Service::start(journaled_cfg(&path, false));
    let len = || std::fs::metadata(&path).expect("journal").len() as usize;
    // (journal length when a call returned, plain ids, keyed (key, id))
    let mut cuts = vec![(len(), Vec::new(), Vec::new())];
    let mut plain = svc.submit_spec("srad x0.05 *2\n").expect("submit");
    let mut keyed = Vec::new();
    cuts.push((len(), plain.clone(), keyed.clone()));
    let items = [("k0", "lud x0.05\n"), ("k1", "hotspot x0.05\n")];
    for ((key, _), r) in items.iter().zip(svc.submit_keyed_batch(&items)) {
        keyed.push((*key, r.expect("keyed batch item")));
    }
    cuts.push((len(), plain.clone(), keyed.clone()));
    plain.extend(svc.submit_spec("srad x0.05\n").expect("submit"));
    cuts.push((len(), plain.clone(), keyed.clone()));
    svc.wait_idle();
    cuts.push((len(), plain.clone(), keyed.clone()));
    svc.shutdown();
    drop(svc);

    let bytes = std::fs::read(&path).expect("journal bytes");
    let cut_path = temp_journal("powerloss-cut");
    for (cut, plain, keyed) in cuts {
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut");
        let svc = Service::start(journaled_cfg(&cut_path, true));
        let report = svc.chaos_report();
        assert!(!report.has_errors(), "cut {cut}: {}", report.render_human());
        for &id in plain.iter().chain(keyed.iter().map(|(_, id)| id)) {
            let st = svc.wait_job(id).expect("an acknowledged job is missing");
            assert!(
                matches!(st.state, JobState::Done { .. }),
                "cut {cut}: {st:?}"
            );
        }
        for (key, id) in keyed {
            let spec = items.iter().find(|(k, _)| *k == key).expect("item").1;
            let again = svc.submit_spec_keyed(spec, key).expect("resubmit");
            assert_eq!(again, vec![id], "cut {cut}: key {key} admitted twice");
        }
        svc.shutdown();
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut_path).ok();
}

#[test]
fn empty_journal_starts_fresh() {
    let path = temp_journal("empty");
    std::fs::write(&path, b"").unwrap();
    recover_and_check(&path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn faulted_run_journals_every_outcome() {
    // A fault plan that fails every execution: all jobs must end
    // dead-lettered — visibly, in the journal and the metrics — and the
    // journal must replay to the same picture.
    let path = temp_journal("faulted");
    let mut cfg = journaled_cfg(&path, false);
    cfg.fault_plan = Some(apu_sim::FaultPlan::parse("@chaos seed=7 job-fail=1\n").unwrap());
    cfg.retry = RetryPolicy {
        max_retries: 1,
        backoff_base_s: 0.01,
        backoff_max_s: 0.02,
    };
    let svc = Service::start(cfg);
    let ids = svc.submit_spec("srad x0.05 *2\n").unwrap();
    for &id in &ids {
        let st = svc.wait_job(id).expect("known id");
        assert!(matches!(st.state, JobState::DeadLetter { .. }), "{st:?}");
    }
    let m = svc.metrics();
    assert_eq!(m.dead_lettered + m.completed, m.submitted);
    let chaos = svc.chaos_report();
    assert!(chaos.has(corun_verify::Code::Srv003));
    assert!(chaos.has(corun_verify::Code::Srv006));
    svc.shutdown();
    drop(svc);

    let scan = scan_journal(&path);
    assert!(!scan.report.has_errors(), "{}", scan.report.render_human());
    let (recovered, replay_report) = replay(&scan.records);
    assert!(
        !replay_report.has_errors(),
        "{}",
        replay_report.render_human()
    );
    assert_eq!(recovered.jobs.len(), 2);
    for rj in &recovered.jobs {
        assert!(matches!(rj.disposition, Disposition::Dead { .. }));
    }
    // And the dead-letter verdicts survive a recovery restart.
    recover_and_check(&path);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mid_file_corruption_abandons_recovery() {
    // Only a torn *final* line is the write a kill interrupted. A bad
    // line with fsync'd, acknowledged records after it is corruption:
    // recovery must refuse the journal rather than truncate those
    // records away with the "tail".
    let path = temp_journal("midfile");
    let bytes = run_and_capture(&path, "srad x0.05 *2\n");
    let text = String::from_utf8(bytes).expect("utf-8 journal");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.len() > 4, "{text}");
    lines[2] = "{\"t\":\"dispatch\",\"id\":0,\"mach".into();
    std::fs::write(&path, lines.join("\n") + "\n").expect("corrupt");

    let scan = scan_journal(&path);
    assert!(scan.report.has(corun_verify::Code::Srv007));
    assert!(
        scan.report.has_errors(),
        "mid-file corruption must abandon the journal: {}",
        scan.report.render_human()
    );

    let corrupt = std::fs::read(&path).expect("corrupt journal");
    let svc = Service::start(journaled_cfg(&path, true));
    assert_eq!(svc.job_count(), 0, "no prefix may be restored");
    let diags = svc.chaos_report();
    assert!(
        diags.errors().any(|d| d.code == corun_verify::Code::Srv007),
        "{}",
        diags.render_human()
    );
    svc.shutdown();
    // The fsync'd records after the bad line are not lost: the refused
    // journal is kept whole for the post-mortem.
    let refused = refused_path(&path);
    assert_eq!(std::fs::read(&refused).expect("refused journal"), corrupt);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(refused).ok();
}

#[test]
fn a_refused_journal_is_kept_not_truncated() {
    // A journal of an older format version must be refused — and, since
    // starting fresh creates a new journal at the same path, moved aside
    // first instead of truncated.
    let path = temp_journal("oldversion");
    let bytes = run_and_capture(&path, "srad x0.05 *2\n");
    let text = String::from_utf8(bytes).expect("utf-8 journal");
    let current = format!("\"version\":{JOURNAL_FORMAT_VERSION},");
    assert!(text.starts_with("{\"t\":\"meta\","), "{text}");
    let old = text.replacen(&current, "\"version\":2,", 1);
    assert_ne!(old, text);
    std::fs::write(&path, &old).expect("write v2 journal");

    let svc = Service::start(journaled_cfg(&path, true));
    assert_eq!(svc.job_count(), 0, "a refused journal restores nothing");
    let refused = refused_path(&path);
    let diags = svc.chaos_report();
    let named = diags.errors().any(|d| {
        d.code == corun_verify::Code::Srv007 && d.message.contains(&refused.display().to_string())
    });
    assert!(named, "{}", diags.render_human());
    svc.shutdown();
    drop(svc);

    assert_eq!(
        std::fs::read_to_string(&refused).expect("refused journal"),
        old,
        "the refused journal keeps its original bytes"
    );
    let fresh = scan_journal(&path);
    assert!(
        !fresh.report.has_errors(),
        "{}",
        fresh.report.render_human()
    );
    assert!(matches!(
        fresh.records.first(),
        Some(Record::Meta { version, .. }) if *version == JOURNAL_FORMAT_VERSION
    ));
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(refused).ok();
}
