//! Property tests for the crash journal: whatever sequence of
//! transitions the daemon performs, the journal it writes must fold
//! (`ServiceState::fold`) deterministically, idempotently across
//! recovery boundaries, and back to exactly the in-memory state — and
//! recovering twice must change nothing. These are the same invariants `corun mc` proves
//! exhaustively at small scope; here they are sampled over much longer
//! random walks (more jobs, more crashes, more kills than the bounded
//! scope allows), so the two approaches cover each other's blind spots.

use apu_sim::Device;
use corun_core::RetryPolicy;
use corun_serve::journal::{check_causality, Record};
use corun_serve::state::ServiceState;
use proptest::prelude::*;

const MACHINES: usize = 2;

/// One step of a random walk: an operation selector plus two operands
/// whose meaning depends on the operation.
type Step = (usize, usize, usize);

/// Drive a walk over the pure state machine, journaling exactly as the
/// daemon does (transition first, record append second; `Evict` before
/// its per-job records). Transitions that refuse (busy slot, downed
/// machine, terminal job) are skipped — a random walk legitimately
/// proposes illegal moves; the daemon's driver simply never performs
/// them. Returns the final state and its journal.
fn walk(steps: &[Step]) -> (ServiceState, Vec<Record>) {
    let retry = RetryPolicy::default();
    let mut st = ServiceState::new(MACHINES);
    let mut journal: Vec<Record> = Vec::new();
    for &(op, a, b) in steps {
        let jobs = st.jobs().len();
        match op {
            0 => {
                if let Ok((_, rec)) = st.accept(&format!("job#{jobs}"), "prog", 1.0) {
                    journal.push(rec);
                }
            }
            1 if jobs > 0 => {
                if let Ok(rec) = st.reject(a % jobs) {
                    journal.push(rec);
                }
            }
            2 if jobs > 0 => {
                let device = if b % 2 == 0 { Device::Cpu } else { Device::Gpu };
                if let Ok(rec) = st.dispatch(a % jobs, b % MACHINES, device, 0.0, 1.0) {
                    journal.push(rec);
                }
            }
            3 if jobs > 0 => {
                if let Ok(rec) = st.complete(a % jobs, 1.0) {
                    journal.push(rec);
                }
            }
            4 if jobs > 0 => {
                if let Ok(report) = st.fail(a % jobs, &retry, "walk failure") {
                    journal.push(report.record);
                }
            }
            5 => {
                if let Ok((evict, reports)) = st.crash(a % MACHINES, 1.0, &retry, "walk crash") {
                    journal.push(evict);
                    journal.extend(reports.into_iter().map(|r| r.record));
                }
            }
            6 => {
                // kill -9 + restart: recover purely from the journal,
                // exactly as `serve --recover` does.
                st = recover(&journal);
                journal.push(Record::Recovered {
                    jobs: st.jobs().len(),
                    machines: MACHINES,
                });
            }
            _ => {}
        }
    }
    (st, journal)
}

/// Fold a walk's journal (which has no `meta` header) onto `MACHINES`
/// machines.
fn fold(journal: &[Record]) -> ServiceState {
    ServiceState::fold(MACHINES, journal)
        .unwrap_or_else(|(k, e)| panic!("journal record {k} does not fold: {e}"))
}

/// What `serve --recover` restarts from: the fold, recovered.
fn recover(journal: &[Record]) -> ServiceState {
    let mut st = fold(journal);
    st.recover(MACHINES);
    st
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    collection::vec((0usize..7, 0usize..8, 0usize..8), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Folding a journal twice yields the same state as folding it once,
    /// and folding past an appended recovery boundary yields exactly the
    /// recovered state: recovery can be retried forever.
    #[test]
    fn replay_is_idempotent(steps in steps()) {
        let (_, journal) = walk(&steps);
        prop_assert_eq!(fold(&journal), fold(&journal), "the fold is not deterministic");

        let recovered = recover(&journal);
        let mut with_boundary = journal.clone();
        with_boundary.push(Record::Recovered {
            jobs: recovered.jobs().len(),
            machines: MACHINES,
        });
        prop_assert_eq!(fold(&with_boundary), recovered,
            "folding past a recovery boundary is not the recovered state");
    }

    /// Recovering from a recovered state's journal is a no-op: the
    /// state machine reaches a fixed point after one recovery.
    #[test]
    fn recover_after_recover_is_a_no_op(steps in steps()) {
        let (_, journal) = walk(&steps);
        let st1 = recover(&journal);

        let mut journal2 = journal.clone();
        journal2.push(Record::Recovered {
            jobs: st1.jobs().len(),
            machines: MACHINES,
        });
        let st2 = recover(&journal2);

        prop_assert_eq!(st1.fingerprint(), st2.fingerprint(),
            "second recovery produced a different state");
        prop_assert_eq!(st1, st2);
    }

    /// Every journal a legal walk writes folds back to exactly the
    /// in-memory state (equal fingerprints), passes the daemon's own
    /// invariant checks, and is causally well-formed (SRV010 never
    /// fires on honest history).
    #[test]
    fn walk_journals_replay_to_the_live_state(steps in steps()) {
        let (st, journal) = walk(&steps);
        prop_assert!(st.check_invariants().is_empty(),
            "walk reached an invariant-violating state: {:?}", st.check_invariants());

        let folded = fold(&journal);
        prop_assert_eq!(folded.fingerprint(), st.fingerprint(),
            "the journal folds to a state other than the live one");
        prop_assert_eq!(folded, st);

        let causality = check_causality(&journal);
        prop_assert!(!causality.has_errors(),
            "honest journal flagged as causally impossible:\n{}",
            causality.render_human());
    }

    /// Causality is prefix-closed: every prefix of an honest journal
    /// (what a torn tail leaves behind) is itself honest and folds, so
    /// neither SRV010 nor SRV009 blocks recovery from a crash
    /// mid-append.
    #[test]
    fn causality_is_prefix_closed(steps in steps()) {
        let (_, journal) = walk(&steps);
        for cut in 0..=journal.len() {
            let causality = check_causality(&journal[..cut]);
            prop_assert!(!causality.has_errors(),
                "prefix of {cut} record(s) flagged:\n{}", causality.render_human());
            fold(&journal[..cut]);
        }
    }
}
