//! # corun-replay — deterministic re-execution of service journals
//!
//! The corun-serve daemon is event-sourced: every nondeterministic
//! input that can change a scheduling outcome (admissions, dispatch
//! decisions, completions, failures and their retry outcomes, machine
//! crashes, cap changes, shutdown) is durably journaled as a typed
//! [`Record`] *before* its effects become observable, and decision
//! paths read time and entropy only through injected sources
//! (`corun_core::Clock` / `DetRng`, enforced by the `SRV011` lint).
//! A journal is therefore a complete transcript: re-applying its
//! records through the same pure [`ServiceState`] transition functions
//! reproduces the live daemon's state bit-for-bit, and
//! [`ServiceState::fingerprint`] equality proves it.
//!
//! This crate is that re-execution engine, behind `corun replay`:
//!
//! - [`replay_journal`] / [`replay_records`] re-run a transcript,
//!   verifying every embedded `Snapshot` checkpoint on the way
//!   (`RPL001`), and report any divergence between a record and the
//!   transition it re-applies (`RPL003`) or a snapshot that does not
//!   decode or fold (`RPL004`).
//! - [`check_terminal`] compares the replayed terminal fingerprint
//!   against an external expectation — the live daemon's fingerprint,
//!   or the journal's own terminal snapshot (`RPL002`).
//! - [`diff_states`] renders a field-level diff for `corun replay
//!   --diff`, so a divergence names the exact job, slot, or counter
//!   that drifted instead of just two hashes.
//!
//! Snapshots are deltas (each lists only the jobs records named since
//! the previous one), and a clean replay decodes none of them: the
//! fingerprint is the whole check. Only when a checkpoint fails
//! `RPL001` are that prefix's snapshots folded, in order from an empty
//! state, into what the daemon recorded, for `--diff` to compare.
//!
//! Replay is pure: nothing here touches the simulation engine, the
//! model, or any clock. That is what makes it fast (hundreds of
//! thousands of events/sec even while verifying every checkpoint over
//! thousands of jobs — see `BENCH_replay.json`) and exact. See `docs/REPLAY.md`
//! for the event-sourcing contract the daemon upholds.

use corun_core::RequeueOutcome;
use corun_serve::{apply_state, replay as recover_replay, scan_journal, Record, ServiceState};
use corun_verify::{Code, Diagnostic, Report};
use std::path::Path;

/// Knobs for one replay run.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Stop after applying this many records (`records[..until]`);
    /// `None` replays the whole journal. The CLI's `--until SEQ`.
    pub until: Option<u64>,
    /// Collect field-level diffs against every mismatching snapshot
    /// (the CLI's `--diff`). Fingerprint checks run either way.
    pub diff: bool,
}

/// What a replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The re-executed state after the last applied record.
    pub state: ServiceState,
    /// Records actually applied (may stop early on `until` or a hard
    /// divergence).
    pub records_applied: usize,
    /// `Snapshot` checkpoints whose fingerprints were verified.
    pub snapshots_verified: usize,
    /// The journal index of the last verified snapshot, if any.
    pub last_snapshot_at: Option<u64>,
    /// The last journaled power cap, if any `cap` record was seen.
    pub cap_w: Option<f64>,
    /// Field-level differences collected under [`ReplayOptions::diff`].
    pub diffs: Vec<String>,
    /// `RPL0xx` findings; empty report = bit-identical reproduction.
    pub report: Report,
}

impl ReplayOutcome {
    /// Fingerprint of the replayed terminal state.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }

    /// Whether the replay reproduced the journal without any
    /// error-severity divergence.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Scan `path` and replay its records. Scan findings (torn tail,
/// version mismatch — `SRV007`) merge into the outcome's report ahead
/// of any replay finding.
pub fn replay_journal(path: &Path, opts: &ReplayOptions) -> ReplayOutcome {
    let scan = scan_journal(path);
    let mut outcome = replay_records(&scan.records, opts);
    let mut report = scan.report;
    report.merge(std::mem::take(&mut outcome.report));
    outcome.report = report;
    outcome
}

/// Re-execute `records` through the pure state machine. A hard
/// divergence (`RPL003`) stops the replay at the offending record —
/// every transition after it would inherit the drift.
pub fn replay_records(records: &[Record], opts: &ReplayOptions) -> ReplayOutcome {
    let mut outcome = ReplayOutcome {
        state: ServiceState::new(0),
        records_applied: 0,
        snapshots_verified: 0,
        last_snapshot_at: None,
        cap_w: None,
        diffs: Vec::new(),
        report: Report::new(),
    };
    for (k, rec) in records.iter().enumerate() {
        if opts.until.is_some_and(|until| k as u64 >= until) {
            break;
        }
        if !apply(&mut outcome, records, k, rec, opts) {
            break;
        }
        outcome.records_applied = k + 1;
    }
    outcome
}

/// Apply one record; `false` stops the replay (hard divergence).
fn apply(
    out: &mut ReplayOutcome,
    records: &[Record],
    k: usize,
    rec: &Record,
    opts: &ReplayOptions,
) -> bool {
    let at = |k: usize| format!("record {k}");
    match rec {
        Record::Meta { machines, .. } => {
            // Version problems are the scanner's job (SRV007); replay
            // just takes the shape.
            out.state = ServiceState::new(*machines);
            true
        }
        Record::Recovered { machines, .. } => {
            // A restart boundary: the daemon rebuilt its state by
            // replaying everything above this line, exactly like this.
            let (recovered, report) = recover_replay(&records[..k]);
            for d in report.diagnostics {
                out.report.push(d);
            }
            out.state = ServiceState::restore_from(&recovered, *machines);
            true
        }
        Record::Accept {
            name,
            program,
            scale,
            ..
        } => match out.state.accept(name, program, *scale) {
            Ok((_, got)) => expect_same(out, k, rec, &got),
            Err(e) => refused(out, &at(k), rec, &e.to_string()),
        },
        Record::Reject { id } => match out.state.reject(*id) {
            Ok(got) => expect_same(out, k, rec, &got),
            Err(e) => refused(out, &at(k), rec, &e.to_string()),
        },
        Record::Dispatch {
            id,
            machine,
            device,
            start_s,
            predicted_s,
            ..
        } => {
            // Mirror the live driver: the engine's poll clears the slot
            // the previous occupant held before the dispatch transition
            // runs (the occupant's own Done/Requeue record follows later
            // in the journal).
            out.state.vacate(*machine, *device);
            match out
                .state
                .dispatch(*id, *machine, *device, *start_s, *predicted_s)
            {
                Ok(got) => expect_same(out, k, rec, &got),
                Err(e) => refused(out, &at(k), rec, &e.to_string()),
            }
        }
        Record::Done { id, end_s, .. } => match out.state.complete(*id, *end_s) {
            Ok(got) => expect_same(out, k, rec, &got),
            Err(e) => refused(out, &at(k), rec, &e.to_string()),
        },
        Record::Requeue {
            id,
            attempt,
            backoff_s,
            reason,
        } => {
            let outcome = RequeueOutcome::Retry {
                attempt: *attempt,
                backoff_s: *backoff_s,
            };
            match out.state.fail_with(*id, outcome, reason) {
                Ok(fail) => expect_same(out, k, rec, &fail.record),
                Err(e) => refused(out, &at(k), rec, &e.to_string()),
            }
        }
        Record::Dead { id, reason } => {
            let attempts = out.state.jobs.get(*id).map_or(1, |j| j.retries + 1);
            match out
                .state
                .fail_with(*id, RequeueOutcome::DeadLetter { attempts }, reason)
            {
                Ok(fail) => expect_same(out, k, rec, &fail.record),
                Err(e) => refused(out, &at(k), rec, &e.to_string()),
            }
        }
        Record::Evict { machine, .. } => {
            // The per-victim Requeue/Dead records follow in the journal;
            // only the down-marking happens here.
            match out.state.evict_only(*machine) {
                Ok(()) => true,
                Err(e) => refused(out, &at(k), rec, &e.to_string()),
            }
        }
        Record::CapChange { cap_w } => {
            out.cap_w = Some(*cap_w);
            true
        }
        Record::ShutdownBegin => {
            out.state.begin_shutdown();
            true
        }
        Record::Snapshot {
            seq, fingerprint, ..
        } => check_snapshot(out, records, k, *seq, *fingerprint, opts),
    }
}

/// Verify one `Snapshot` checkpoint against the re-executed state.
fn check_snapshot(
    out: &mut ReplayOutcome,
    records: &[Record],
    k: usize,
    seq: u64,
    fingerprint: u64,
    opts: &ReplayOptions,
) -> bool {
    if seq != k as u64 {
        out.report.push(Diagnostic::new(
            Code::Rpl003,
            format!("record {k}"),
            format!("snapshot claims journal index {seq} but sits at index {k}"),
        ));
    }
    let got = out.state.fingerprint();
    if got == fingerprint {
        out.snapshots_verified += 1;
        out.last_snapshot_at = Some(k as u64);
        return true;
    }
    out.report.push(
        Diagnostic::new(
            Code::Rpl001,
            format!("record {k}"),
            format!(
                "snapshot fingerprint {fingerprint:016x} but replaying its prefix \
                 produced {got:016x}"
            ),
        )
        .with_help("the journal and the code disagree on a transition; see --diff"),
    );
    match fold_snapshots(&records[..=k]) {
        Ok(recorded) => {
            if opts.diff {
                let mut d = diff_states(&out.state, &recorded);
                out.diffs.append(&mut d);
            }
        }
        Err(d) => out.report.push(d),
    }
    false
}

/// Fold the `Snapshot` records of `records`, in order from an empty
/// state, into the state the last of them recorded. A snapshot that
/// does not decode, or leaves a job it adds unlisted, is `RPL004`.
fn fold_snapshots(records: &[Record]) -> Result<ServiceState, Diagnostic> {
    let mut st = ServiceState::new(0);
    for (j, rec) in records.iter().enumerate() {
        if let Record::Snapshot { state, .. } = rec {
            apply_state(&mut st, state).map_err(|e| {
                Diagnostic::new(
                    Code::Rpl004,
                    format!("record {j}"),
                    format!("embedded snapshot state does not fold: {e}"),
                )
            })?;
        }
    }
    Ok(st)
}

/// Record a transition that re-applied to something other than what the
/// journal recorded. Always returns `false` (stop).
fn expect_same(out: &mut ReplayOutcome, k: usize, want: &Record, got: &Record) -> bool {
    if got == want {
        return true;
    }
    out.report.push(Diagnostic::new(
        Code::Rpl003,
        format!("record {k}"),
        format!("journal recorded {want:?} but re-applying produced {got:?}"),
    ));
    false
}

/// Record a transition the pure state machine refused outright. Always
/// returns `false` (stop).
fn refused(out: &mut ReplayOutcome, loc: &str, rec: &Record, err: &str) -> bool {
    out.report.push(Diagnostic::new(
        Code::Rpl003,
        loc.to_string(),
        format!("re-applying {rec:?} was refused: {err}"),
    ));
    false
}

/// Compare the replayed terminal fingerprint against an external
/// expectation (the live daemon, or the journal's terminal snapshot);
/// pushes `RPL002` on mismatch. `what` names the expectation in the
/// diagnostic (e.g. `"live service"`).
pub fn check_terminal(outcome: &mut ReplayOutcome, expected_fingerprint: u64, what: &str) -> bool {
    let got = outcome.fingerprint();
    if got == expected_fingerprint {
        return true;
    }
    outcome.report.push(
        Diagnostic::new(
            Code::Rpl002,
            what.to_string(),
            format!(
                "replay terminal fingerprint {got:016x} does not reproduce the \
                 {what} fingerprint {expected_fingerprint:016x}"
            ),
        )
        .with_help("re-run with --diff against the last snapshot to localize the drift"),
    );
    false
}

/// Render the field-level differences between the replayed state and a
/// recorded one, most significant first. Empty iff the states are equal.
#[must_use]
pub fn diff_states(replayed: &ServiceState, recorded: &ServiceState) -> Vec<String> {
    const MAX_DIFFS: usize = 48;
    let mut out = Vec::new();
    if replayed.jobs.len() != recorded.jobs.len() {
        out.push(format!(
            "job table: replayed {} jobs, recorded {}",
            replayed.jobs.len(),
            recorded.jobs.len()
        ));
    }
    for (id, (a, b)) in replayed.jobs.iter().zip(&recorded.jobs).enumerate() {
        if a == b {
            continue;
        }
        if out.len() >= MAX_DIFFS {
            break;
        }
        out.push(format!("job {id}: replayed {a:?}, recorded {b:?}"));
    }
    if replayed.queue != recorded.queue {
        out.push(format!(
            "queue: replayed {:?}, recorded {:?}",
            replayed.queue, recorded.queue
        ));
    }
    if replayed.machines.len() != recorded.machines.len() {
        out.push(format!(
            "machines: replayed {}, recorded {}",
            replayed.machines.len(),
            recorded.machines.len()
        ));
    }
    for (m, (a, b)) in replayed.machines.iter().zip(&recorded.machines).enumerate() {
        if a != b {
            out.push(format!("machine {m}: replayed {a:?}, recorded {b:?}"));
        }
    }
    if replayed.shutdown != recorded.shutdown {
        out.push(format!(
            "shutdown: replayed {}, recorded {}",
            replayed.shutdown, recorded.shutdown
        ));
    }
    if replayed.counters != recorded.counters {
        out.push(format!(
            "counters: replayed {:?}, recorded {:?}",
            replayed.counters, recorded.counters
        ));
    }
    if out.len() >= MAX_DIFFS {
        out.push(format!("... (truncated at {MAX_DIFFS} differences)"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apu_sim::Device;
    use corun_core::JobId;
    use corun_core::RetryPolicy;
    use corun_serve::encode_state;

    /// A journal written the daemon's way: every record marks the jobs
    /// it names, and each snapshot lists only the jobs marked since the
    /// previous one (a delta).
    #[derive(Default)]
    struct Transcript {
        recs: Vec<Record>,
        touched: Vec<JobId>,
    }

    impl Transcript {
        fn push(&mut self, rec: Record) {
            self.touched.extend(rec.touched_jobs());
            self.recs.push(rec);
        }

        fn snapshot(&mut self, st: &ServiceState) {
            let rec = Record::Snapshot {
                seq: self.recs.len() as u64,
                fingerprint: st.fingerprint(),
                state: encode_state(st, self.touched.drain(..)),
            };
            self.recs.push(rec);
        }
    }

    /// Drive a live trajectory through the pure state machine, journal
    /// every emitted record, and sprinkle snapshots at quiescent points —
    /// exactly what the daemon does, minus the threads.
    fn trajectory() -> (Transcript, ServiceState) {
        let retry = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let mut st = ServiceState::new(2);
        let mut t = Transcript::default();
        t.push(Record::Meta {
            version: corun_serve::JOURNAL_FORMAT_VERSION,
            machines: 2,
        });
        for k in 0..4 {
            let (_, rec) = st.accept(&format!("srad#{k}"), "srad", 0.3).unwrap();
            t.push(rec);
        }
        t.snapshot(&st);
        t.push(st.dispatch(0, 0, Device::Gpu, 0.0, 2.0).unwrap());
        t.push(st.dispatch(1, 1, Device::Cpu, 0.0, 3.0).unwrap());
        t.push(st.complete(0, 2.1).unwrap());
        t.push(Record::CapChange { cap_w: 12.5 });
        let fail = st.fail(1, &retry, "injected job failure").unwrap();
        t.push(fail.record);
        t.snapshot(&st); // a delta: jobs 0 and 1
        t.push(st.dispatch(1, 1, Device::Cpu, 4.0, 3.0).unwrap());
        let fail = st.fail(1, &retry, "injected job failure").unwrap();
        t.push(fail.record); // dead-letters
        t.push(st.dispatch(2, 0, Device::Cpu, 3.0, 1.5).unwrap());
        let (evict, victims) = st.crash(0, 4.0, &retry, "machine crash").unwrap();
        t.push(evict);
        for v in victims {
            t.push(v.record);
        }
        st.begin_shutdown();
        t.push(Record::ShutdownBegin);
        t.snapshot(&st);
        (t, st)
    }

    fn with_diff() -> ReplayOptions {
        ReplayOptions {
            until: None,
            diff: true,
        }
    }

    /// Journal index of the `n`th snapshot.
    fn nth_snapshot(recs: &[Record], n: usize) -> usize {
        recs.iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Record::Snapshot { .. }))
            .nth(n)
            .expect("trajectory has the snapshot")
            .0
    }

    #[test]
    fn replay_reproduces_a_trajectory_bit_identically() {
        let (Transcript { recs, .. }, live) = trajectory();
        let mut outcome = replay_records(&recs, &ReplayOptions::default());
        assert!(outcome.is_clean(), "{}", outcome.report.render_human());
        assert_eq!(outcome.records_applied, recs.len());
        assert_eq!(outcome.snapshots_verified, 3);
        assert_eq!(outcome.cap_w, Some(12.5));
        assert_eq!(outcome.state, live);
        assert_eq!(outcome.fingerprint(), live.fingerprint());
        assert!(check_terminal(
            &mut outcome,
            live.fingerprint(),
            "live state"
        ));
        assert!(diff_states(&outcome.state, &live).is_empty());
    }

    #[test]
    fn every_prefix_of_a_trajectory_replays_cleanly() {
        // kill -9 can truncate the journal after any record; every
        // prefix must still replay without divergence.
        let (Transcript { recs, .. }, _) = trajectory();
        for n in 0..=recs.len() {
            let outcome = replay_records(&recs[..n], &ReplayOptions::default());
            assert!(
                outcome.is_clean(),
                "prefix {n}: {}",
                outcome.report.render_human()
            );
            assert_eq!(outcome.records_applied, n);
        }
    }

    #[test]
    fn until_stops_early() {
        let (Transcript { recs, .. }, _) = trajectory();
        let outcome = replay_records(
            &recs,
            &ReplayOptions {
                until: Some(5),
                diff: false,
            },
        );
        assert_eq!(outcome.records_applied, 5);
        // Meta + 4 accepts: all four jobs queued.
        assert_eq!(outcome.state.queue.len(), 4);
    }

    #[test]
    fn a_tampered_record_is_a_detected_divergence() {
        let (Transcript { mut recs, .. }, _) = trajectory();
        // Flip the first dispatch's device: the journal now disagrees
        // with what re-execution produces at the next snapshot (and the
        // record-level check catches it immediately).
        let Record::Dispatch { device, .. } = &mut recs[6] else {
            panic!("record 6 should be the first dispatch");
        };
        *device = Device::Cpu;
        let outcome = replay_records(&recs, &ReplayOptions::default());
        assert!(!outcome.is_clean());
        assert!(outcome.report.has(Code::Rpl001) || outcome.report.has(Code::Rpl003));
    }

    #[test]
    fn a_corrupt_snapshot_fingerprint_fails_rpl001_with_diff() {
        let (Transcript { mut recs, .. }, _) = trajectory();
        // The last snapshot is a delta: only folding every snapshot
        // before it rebuilds the whole recorded state.
        let snap_at = nth_snapshot(&recs, 2);
        let Record::Snapshot { fingerprint, .. } = &mut recs[snap_at] else {
            unreachable!()
        };
        *fingerprint ^= 1;
        let outcome = replay_records(&recs, &with_diff());
        assert!(outcome.report.has(Code::Rpl001));
        assert!(!outcome.report.has(Code::Rpl004));
        // The folded deltas still match the replayed state, so the diff
        // comes out empty — the fingerprint field itself lied.
        assert!(outcome.diffs.is_empty(), "{:?}", outcome.diffs);
        assert_eq!(outcome.records_applied, snap_at);
    }

    #[test]
    fn a_tampered_job_in_a_delta_is_named_by_the_diff() {
        let (Transcript { mut recs, .. }, _) = trajectory();
        let at = nth_snapshot(&recs, 1);
        let mut recorded = replay_records(&recs[..at], &ReplayOptions::default()).state;
        recorded.jobs[1].retries += 5;
        let Record::Snapshot {
            fingerprint, state, ..
        } = &mut recs[at]
        else {
            unreachable!()
        };
        *state = encode_state(&recorded, [0, 1]);
        *fingerprint = recorded.fingerprint();
        let outcome = replay_records(&recs, &with_diff());
        assert!(outcome.report.has(Code::Rpl001));
        assert_eq!(outcome.diffs.len(), 1, "{:?}", outcome.diffs);
        assert!(
            outcome.diffs[0].starts_with("job 1:"),
            "{:?}",
            outcome.diffs
        );
    }

    #[test]
    fn a_delta_leaving_a_new_job_unlisted_is_rpl004() {
        let (Transcript { mut recs, .. }, _) = trajectory();
        let at = nth_snapshot(&recs, 0);
        let replayed = replay_records(&recs[..at], &ReplayOptions::default()).state;
        let Record::Snapshot {
            fingerprint, state, ..
        } = &mut recs[at]
        else {
            unreachable!()
        };
        *state = encode_state(&replayed, [0, 1, 3]); // job 2 is new
        *fingerprint ^= 1;
        let outcome = replay_records(&recs, &with_diff());
        assert!(outcome.report.has(Code::Rpl001));
        assert!(outcome.report.has(Code::Rpl004));
        assert!(outcome.diffs.is_empty());
    }

    #[test]
    fn terminal_mismatch_is_rpl002() {
        let (Transcript { recs, .. }, live) = trajectory();
        let mut outcome = replay_records(&recs, &ReplayOptions::default());
        assert!(!check_terminal(
            &mut outcome,
            live.fingerprint() ^ 0xdead,
            "live service"
        ));
        assert!(outcome.report.has(Code::Rpl002));
    }

    #[test]
    fn recovery_boundaries_replay_through() {
        // Build: run, then a Recovered boundary (as a restart writes),
        // then more work. Replay must restore across the boundary.
        let (mut t, _) = trajectory();
        // Simulate what open_journal does on restart: replay, restore,
        // append Recovered (which marks every job, so the snapshot after
        // it is full), continue with a fresh incarnation.
        let (recovered, _) = recover_replay(&t.recs);
        let mut st = ServiceState::restore_from(&recovered, 2);
        t.push(Record::Recovered {
            jobs: st.jobs.len(),
            machines: 2,
        });
        t.snapshot(&st);
        // The recovered queue holds the evicted job; drain it.
        if let Some(&next) = st.queue.front() {
            t.push(st.dispatch(next, 1, Device::Gpu, 5.0, 1.0).unwrap());
            t.push(st.complete(next, 6.0).unwrap());
        }
        t.snapshot(&st);
        let outcome = replay_records(&t.recs, &ReplayOptions::default());
        assert!(outcome.is_clean(), "{}", outcome.report.render_human());
        assert_eq!(outcome.state, st);
        // The snapshots alone fold to the same state.
        assert_eq!(fold_snapshots(&t.recs).unwrap(), st);
    }

    #[test]
    fn diff_states_names_the_drift() {
        let (_, live) = trajectory();
        let mut other = live.clone();
        other.counters.completed += 1;
        other.jobs[0].retries += 1;
        let diffs = diff_states(&live, &other);
        assert_eq!(diffs.len(), 2);
        assert!(diffs.iter().any(|d| d.starts_with("job 0:")));
        assert!(diffs.iter().any(|d| d.starts_with("counters:")));
    }
}
