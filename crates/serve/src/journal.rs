//! Crash-safe service journal: an append-only line-JSON log of every
//! admission, dispatch, completion, requeue, dead-letter, and eviction
//! the daemon performs.
//!
//! The journal is the daemon's write-ahead record: each record is one
//! JSON object on one line, written as the state changes and committed
//! (`sync_data`) before any reply that reports the change goes out (see
//! [`crate::wal::Journal`] and `docs/FAULTS.md`). A daemon killed at
//! any byte can therefore be restarted with `--recover`: [`scan_journal`]
//! drops a torn final line (the kill landed mid-write), the surviving
//! records are folded through the service transitions that wrote them
//! (`ServiceState::apply`), and `ServiceState::recover` restarts the
//! result — done work stays done, in-flight work is re-queued, and
//! nothing is double-dispatched.
//!
//! This module is the journal's record vocabulary ([`Record`]) plus its
//! causality rule; the durable writer, the scan and the tail repair are
//! the shared write-ahead log in [`crate::wal`].
//!
//! `snapshot` records are verification checkpoints, not a recovery
//! source: recovery folds the other records. Each snapshot lists only
//! the jobs records named since the previous one
//! ([`Record::touched_jobs`]), so the first snapshot of a journal and
//! the one right after a `recovered` boundary list every job
//! (`crate::snapshot` has the codec).
//!
//! The format is versioned by [`JOURNAL_FORMAT_VERSION`], the sibling of
//! `runtime::CACHE_FORMAT_VERSION`: bump it whenever a record's schema
//! changes so stale journals are refused (SRV007) instead of
//! misinterpreted. A journal recovery refuses is kept beside the fresh
//! one as `<path>.refused`, never overwritten in place.
//! `docs/FAULTS.md` documents the format and the recovery semantics.

use crate::json::{obj, Json};
use crate::wal::{self, LineRecord, Scan};
use apu_sim::Device;
use corun_core::JobId;
use corun_verify::{Code, Diagnostic, Report};
use std::path::Path;

/// Journal schema revision; mismatches are refused at recovery with
/// SRV007. Versioned alongside `runtime::CACHE_FORMAT_VERSION`.
/// v2 added `machines` to `meta`/`recovered` and the `cap`, `shutdown`,
/// and `snapshot` record types that make journals deterministically
/// replayable (`docs/REPLAY.md`). v3 made `snapshot` states deltas: each
/// lists only the jobs records named since the previous snapshot. v4
/// changed the `snapshot` fingerprint's value: its job part is the sum of
/// per-job digests (`ServiceState::fingerprint`), not a walk of the table.
pub const JOURNAL_FORMAT_VERSION: u32 = 4;

/// One journal record. The first line of every journal is `Meta`; every
/// later line describes one state transition, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Journal header: format version and machine count, so `corun
    /// replay` can rebuild the service shape without out-of-band flags.
    Meta {
        /// The [`JOURNAL_FORMAT_VERSION`] the journal was written under.
        version: u32,
        /// Simulated machines the daemon was started with.
        machines: usize,
    },
    /// A recovery generation boundary: the daemon restarted and replayed
    /// everything above this line; `jobs` jobs were reconstructed.
    Recovered {
        /// Jobs known after replay.
        jobs: usize,
        /// Machine count of the restarted incarnation.
        machines: usize,
    },
    /// A job passed admission. `id`s are dense and in admission order.
    Accept {
        /// The assigned job id.
        id: usize,
        /// Instance name (`program#k`).
        name: String,
        /// Program the job was built from.
        program: String,
        /// Workload scale factor.
        scale: f64,
    },
    /// A job was profiled but refused (cap-infeasible).
    Reject {
        /// The assigned job id.
        id: usize,
    },
    /// A job was handed to a simulated machine.
    Dispatch {
        /// The job id.
        id: usize,
        /// Hosting machine index.
        machine: usize,
        /// Device it was placed on.
        device: Device,
        /// Dispatch time on that machine's simulated clock, seconds.
        start_s: f64,
        /// Model-predicted duration, seconds.
        predicted_s: f64,
        /// Execution attempt (0 for the first dispatch).
        attempt: u32,
    },
    /// A job completed.
    Done {
        /// The job id.
        id: usize,
        /// Hosting machine index.
        machine: usize,
        /// Device it ran on.
        device: Device,
        /// Dispatch time, simulated seconds.
        start_s: f64,
        /// Completion time, simulated seconds.
        end_s: f64,
        /// Model-predicted duration at dispatch, seconds.
        predicted_s: f64,
    },
    /// A failed or evicted job went back to the queue.
    Requeue {
        /// The job id.
        id: usize,
        /// Retry attempt this requeue starts (1-based).
        attempt: u32,
        /// Back-off before the job becomes dispatchable again, seconds.
        backoff_s: f64,
        /// Why the previous execution was lost.
        reason: String,
    },
    /// A job exhausted its retry budget and was dead-lettered.
    Dead {
        /// The job id.
        id: usize,
        /// Why the job was given up on.
        reason: String,
    },
    /// A machine crashed and its in-flight work was evicted.
    Evict {
        /// The crashed machine's index.
        machine: usize,
        /// Simulated time of the crash, seconds.
        at_s: f64,
    },
    /// The power cap was rebalanced (operator `set_cap` or a fleet
    /// coordinator repartition).
    CapChange {
        /// The new cap, watts.
        cap_w: f64,
    },
    /// Graceful shutdown began: no further admissions, the queue drains.
    ShutdownBegin,
    /// A periodic checkpoint of the `ServiceState`, written at a
    /// quiescent point (state and journal agree). Lets `corun replay`
    /// verify fingerprint equality mid-run.
    Snapshot {
        /// Records written before this snapshot (its own journal index).
        seq: u64,
        /// `ServiceState::fingerprint()` of the whole state at the
        /// checkpoint.
        fingerprint: u64,
        /// The encoded delta: the jobs records named since the previous
        /// snapshot ([`Record::touched_jobs`]) plus the queue, machines,
        /// shutdown flag and counters (see `snapshot::encode_state`).
        state: String,
    },
}

impl Record {
    /// The job ids whose snapshot entry this record may change: the one
    /// job an `accept`, `reject`, `dispatch`, `done`, `requeue` or `dead`
    /// names, every job a `recovered` boundary rebuilt, and none for the
    /// rest (an `evict` is followed by one record per victim). The next
    /// snapshot lists exactly the union of these since the previous one.
    pub fn touched_jobs(&self) -> std::ops::Range<JobId> {
        match self {
            Record::Accept { id, .. }
            | Record::Reject { id }
            | Record::Dispatch { id, .. }
            | Record::Done { id, .. }
            | Record::Requeue { id, .. }
            | Record::Dead { id, .. } => *id..*id + 1,
            Record::Recovered { jobs, .. } => 0..*jobs,
            Record::Meta { .. }
            | Record::Evict { .. }
            | Record::CapChange { .. }
            | Record::ShutdownBegin
            | Record::Snapshot { .. } => 0..0,
        }
    }
}

fn device_str(d: Device) -> &'static str {
    match d {
        Device::Cpu => "cpu",
        Device::Gpu => "gpu",
    }
}

fn parse_device(s: &str) -> Option<Device> {
    match s {
        "cpu" => Some(Device::Cpu),
        "gpu" => Some(Device::Gpu),
        _ => None,
    }
}

impl LineRecord for Record {
    const FORMAT_VERSION: u32 = JOURNAL_FORMAT_VERSION;

    fn to_json(&self) -> String {
        let v = match self {
            Record::Meta { version, machines } => obj(vec![
                ("t", Json::Str("meta".into())),
                ("version", Json::Num(*version as f64)),
                ("machines", Json::Num(*machines as f64)),
            ]),
            Record::Recovered { jobs, machines } => obj(vec![
                ("t", Json::Str("recovered".into())),
                ("jobs", Json::Num(*jobs as f64)),
                ("machines", Json::Num(*machines as f64)),
            ]),
            Record::Accept {
                id,
                name,
                program,
                scale,
            } => obj(vec![
                ("t", Json::Str("accept".into())),
                ("id", Json::Num(*id as f64)),
                ("name", Json::Str(name.clone())),
                ("program", Json::Str(program.clone())),
                ("scale", Json::Num(*scale)),
            ]),
            Record::Reject { id } => obj(vec![
                ("t", Json::Str("reject".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            Record::Dispatch {
                id,
                machine,
                device,
                start_s,
                predicted_s,
                attempt,
            } => obj(vec![
                ("t", Json::Str("dispatch".into())),
                ("id", Json::Num(*id as f64)),
                ("machine", Json::Num(*machine as f64)),
                ("device", Json::Str(device_str(*device).into())),
                ("start_s", Json::Num(*start_s)),
                ("predicted_s", Json::Num(*predicted_s)),
                ("attempt", Json::Num(*attempt as f64)),
            ]),
            Record::Done {
                id,
                machine,
                device,
                start_s,
                end_s,
                predicted_s,
            } => obj(vec![
                ("t", Json::Str("done".into())),
                ("id", Json::Num(*id as f64)),
                ("machine", Json::Num(*machine as f64)),
                ("device", Json::Str(device_str(*device).into())),
                ("start_s", Json::Num(*start_s)),
                ("end_s", Json::Num(*end_s)),
                ("predicted_s", Json::Num(*predicted_s)),
            ]),
            Record::Requeue {
                id,
                attempt,
                backoff_s,
                reason,
            } => obj(vec![
                ("t", Json::Str("requeue".into())),
                ("id", Json::Num(*id as f64)),
                ("attempt", Json::Num(*attempt as f64)),
                ("backoff_s", Json::Num(*backoff_s)),
                ("reason", Json::Str(reason.clone())),
            ]),
            Record::Dead { id, reason } => obj(vec![
                ("t", Json::Str("dead".into())),
                ("id", Json::Num(*id as f64)),
                ("reason", Json::Str(reason.clone())),
            ]),
            Record::Evict { machine, at_s } => obj(vec![
                ("t", Json::Str("evict".into())),
                ("machine", Json::Num(*machine as f64)),
                ("at_s", Json::Num(*at_s)),
            ]),
            Record::CapChange { cap_w } => obj(vec![
                ("t", Json::Str("cap".into())),
                ("cap_w", Json::Num(*cap_w)),
            ]),
            Record::ShutdownBegin => obj(vec![("t", Json::Str("shutdown".into()))]),
            Record::Snapshot {
                seq,
                fingerprint,
                state,
            } => obj(vec![
                ("t", Json::Str("snapshot".into())),
                ("seq", Json::Num(*seq as f64)),
                // 64-bit fingerprints don't fit a JSON double; hex string.
                ("fp", Json::Str(format!("{fingerprint:016x}"))),
                ("state", Json::Str(state.clone())),
            ]),
        };
        v.render()
    }

    fn from_json(line: &str) -> Result<Option<Record>, String> {
        let v = Json::parse(line)?;
        let t = v.text("t")?;
        let dev = || {
            v.text("device")
                .and_then(|s| parse_device(&s).ok_or_else(|| format!("bad device `{s}`")))
        };
        let rec = match t.as_str() {
            // `machines` arrived in v2; default it so a v1 header still
            // parses far enough to earn the version-mismatch diagnostic
            // instead of a torn-tail one.
            "meta" => Record::Meta {
                version: v.idx("version")? as u32,
                machines: v.get("machines").and_then(Json::as_index).unwrap_or(1),
            },
            "recovered" => Record::Recovered {
                jobs: v.idx("jobs")?,
                machines: v.get("machines").and_then(Json::as_index).unwrap_or(1),
            },
            "accept" => Record::Accept {
                id: v.idx("id")?,
                name: v.text("name")?,
                program: v.text("program")?,
                scale: v.num("scale")?,
            },
            "reject" => Record::Reject { id: v.idx("id")? },
            "dispatch" => Record::Dispatch {
                id: v.idx("id")?,
                machine: v.idx("machine")?,
                device: dev()?,
                start_s: v.num("start_s")?,
                predicted_s: v.num("predicted_s")?,
                attempt: v.idx("attempt")? as u32,
            },
            "done" => Record::Done {
                id: v.idx("id")?,
                machine: v.idx("machine")?,
                device: dev()?,
                start_s: v.num("start_s")?,
                end_s: v.num("end_s")?,
                predicted_s: v.num("predicted_s")?,
            },
            "requeue" => Record::Requeue {
                id: v.idx("id")?,
                attempt: v.idx("attempt")? as u32,
                backoff_s: v.num("backoff_s")?,
                reason: v.text("reason")?,
            },
            "dead" => Record::Dead {
                id: v.idx("id")?,
                reason: v.text("reason")?,
            },
            "evict" => Record::Evict {
                machine: v.idx("machine")?,
                at_s: v.num("at_s")?,
            },
            "cap" => Record::CapChange {
                cap_w: v.num("cap_w")?,
            },
            "shutdown" => Record::ShutdownBegin,
            "snapshot" => Record::Snapshot {
                seq: v.idx("seq")? as u64,
                fingerprint: v.text("fp").and_then(|s| {
                    u64::from_str_radix(&s, 16).map_err(|e| format!("bad fingerprint `{s}`: {e}"))
                })?,
                state: v.text("state")?,
            },
            _ => return Ok(None),
        };
        Ok(Some(rec))
    }

    fn header_version(&self) -> Option<u32> {
        match self {
            Record::Meta { version, .. } => Some(*version),
            _ => None,
        }
    }
}

/// Scan a journal under the shared write-ahead-log rule
/// ([`wal::scan`], SRV007): a torn final line is a warning, earlier
/// corruption, an unreadable file or a bad header an error. Records that
/// survive are then run through [`check_causality`]: a journal whose
/// records are individually valid but causally impossible (e.g. `done`
/// before `dispatch`) earns error-severity SRV010 diagnostics, and
/// recovery abandons it rather than replaying a fabricated history.
pub fn scan_journal(path: &Path) -> Scan<Record> {
    let mut scan = wal::scan(path, Code::Srv007);
    let causality = check_causality(&scan.records);
    scan.report.merge(causality);
    scan
}

/// Check that a record sequence tells a causally possible story.
///
/// This is the input check ahead of the fold: a journal whose records
/// are *individually* valid but out of order (a `done` before its
/// `dispatch`, overlapping dispatches of one job, retry attempts that
/// skip numbers) describes a state the service never passed through.
/// This pass enforces the ordering rules the live daemon's transitions
/// guarantee:
///
/// * `done`, `requeue`, and `dead` each close a dispatch that is
///   actually open for that job, and `done` names the machine/device the
///   open dispatch used;
/// * a job is never dispatched while a dispatch for it is open, nor
///   after it finished (`done`/`dead`) or was rejected;
/// * `reject` only hits a job with no open dispatch and no terminal
///   state;
/// * `dispatch` carries `attempt` equal to the retries consumed so far,
///   and each `requeue` carries exactly the next attempt number;
/// * a `recovered` boundary closes every open dispatch (in-flight work
///   became pending at the kill).
///
/// A dispatch left open at the end of the journal is *not* a violation:
/// that is exactly what a kill leaves behind, and every record-boundary
/// prefix of a causal journal is itself causal. Violations are SRV010 at
/// error severity, so [`scan_journal`] callers that gate on
/// `Report::has_errors` abandon the journal instead of replaying it.
pub fn check_causality(records: &[Record]) -> Report {
    struct Track {
        open: Option<(usize, Device)>,
        retries: u32,
        terminal: Option<&'static str>,
    }
    let mut report = Report::new();
    let mut jobs: Vec<Track> = Vec::new();
    let mut bad = |rec: usize, msg: String| {
        report.push(
            Diagnostic::new(Code::Srv010, format!("journal record {rec}"), msg).with_help(
                "this journal's history is causally impossible; recovery abandons it".to_string(),
            ),
        );
    };
    for (k, rec) in records.iter().enumerate() {
        match rec {
            Record::Meta { .. }
            | Record::Evict { .. }
            | Record::CapChange { .. }
            | Record::ShutdownBegin
            | Record::Snapshot { .. } => {}
            Record::Recovered { .. } => {
                // A restart boundary: whatever was in flight at the kill
                // was reconstructed as pending, so no dispatch stays open
                // across it.
                for j in &mut jobs {
                    j.open = None;
                }
            }
            Record::Accept { id, .. } => {
                // Density is the fold's concern (SRV009); only track
                // the jobs that fit the dense sequence.
                if *id == jobs.len() {
                    jobs.push(Track {
                        open: None,
                        retries: 0,
                        terminal: None,
                    });
                }
            }
            Record::Reject { id } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if let Some((machine, _)) = j.open {
                        bad(
                            k,
                            format!("job {id} rejected while running on machine {machine}"),
                        );
                    } else if let Some(t) = j.terminal {
                        bad(k, format!("job {id} rejected after it was already {t}"));
                    } else {
                        j.terminal = Some("rejected");
                    }
                }
            }
            Record::Dispatch {
                id,
                machine,
                device,
                attempt,
                ..
            } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if let Some((open_m, _)) = j.open {
                        bad(
                            k,
                            format!(
                                "job {id} dispatched to machine {machine} while a dispatch on machine {open_m} is still open"
                            ),
                        );
                    } else if let Some(t) = j.terminal {
                        bad(k, format!("job {id} dispatched after it was already {t}"));
                    } else if *attempt != j.retries {
                        bad(
                            k,
                            format!(
                                "job {id} dispatched as attempt {attempt} but {} retr{} consumed",
                                j.retries,
                                if j.retries == 1 { "y was" } else { "ies were" }
                            ),
                        );
                    } else {
                        j.open = Some((*machine, *device));
                    }
                }
            }
            Record::Done {
                id,
                machine,
                device,
                ..
            } => {
                if let Some(j) = jobs.get_mut(*id) {
                    match j.open {
                        None => bad(
                            k,
                            format!("job {id} done with no open dispatch (done before dispatch?)"),
                        ),
                        Some((open_m, open_d)) if open_m != *machine || open_d != *device => bad(
                            k,
                            format!(
                                "job {id} done on machine {machine}/{} but was dispatched to machine {open_m}/{}",
                                device_str(*device),
                                device_str(open_d)
                            ),
                        ),
                        Some(_) => {
                            j.open = None;
                            j.terminal = Some("done");
                        }
                    }
                }
            }
            Record::Requeue { id, attempt, .. } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if j.open.is_none() {
                        bad(
                            k,
                            format!("job {id} requeued with no open dispatch to fail"),
                        );
                    } else if *attempt != j.retries + 1 {
                        bad(
                            k,
                            format!(
                                "job {id} requeued as attempt {attempt} after attempt {} (retry numbering must be contiguous)",
                                j.retries
                            ),
                        );
                    } else {
                        j.open = None;
                        j.retries = *attempt;
                    }
                }
            }
            Record::Dead { id, .. } => {
                if let Some(j) = jobs.get_mut(*id) {
                    if j.open.is_none() {
                        bad(
                            k,
                            format!("job {id} dead-lettered with no open dispatch to fail"),
                        );
                    } else {
                        j.open = None;
                        j.terminal = Some("dead-lettered");
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::state::{JobState, ServiceState};
    use crate::wal::Journal;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "corun-journal-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    fn create(path: &Path) -> Journal {
        let meta = Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines: 1,
        };
        Journal::create(path, &meta).unwrap()
    }

    pub(crate) fn sample_records() -> Vec<Record> {
        vec![
            Record::Accept {
                id: 0,
                name: "srad#0".into(),
                program: "srad".into(),
                scale: 0.2,
            },
            Record::Accept {
                id: 1,
                name: "lud#0".into(),
                program: "lud".into(),
                scale: 0.1,
            },
            Record::Dispatch {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                predicted_s: 3.5,
                attempt: 0,
            },
            Record::Done {
                id: 0,
                machine: 0,
                device: Device::Gpu,
                start_s: 0.0,
                end_s: 3.4,
                predicted_s: 3.5,
            },
            Record::Dispatch {
                id: 1,
                machine: 0,
                device: Device::Cpu,
                start_s: 3.4,
                predicted_s: 2.0,
                attempt: 0,
            },
            Record::Requeue {
                id: 1,
                attempt: 1,
                backoff_s: 0.05,
                reason: "injected job failure".into(),
            },
            Record::Evict {
                machine: 0,
                at_s: 4.0,
            },
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        let mut all = sample_records();
        all.extend([
            Record::Meta {
                version: JOURNAL_FORMAT_VERSION,
                machines: 3,
            },
            Record::Recovered {
                jobs: 2,
                machines: 3,
            },
            Record::CapChange { cap_w: 12.5 },
            Record::ShutdownBegin,
            Record::Snapshot {
                seq: 17,
                fingerprint: 0xdead_beef_cafe_f00d,
                state: "{\"jobs\":[],\"queue\":[]}".into(),
            },
        ]);
        for rec in all {
            let line = rec.to_json();
            // `"t"` leads every line, so a line's type is its prefix.
            assert!(line.starts_with("{\"t\":"), "{line}");
            let back = Record::from_json(&line).unwrap().unwrap();
            assert_eq!(back, rec, "roundtrip failed for {line}");
        }
        // Unknown types are skipped, not errors; garbage is an error.
        assert_eq!(Record::from_json(r#"{"t":"future_thing"}"#).unwrap(), None);
        assert!(Record::from_json("{half a rec").is_err());
        assert!(Record::from_json(r#"{"t":"accept","id":0}"#).is_err());
    }

    #[test]
    fn journal_write_read_replay() {
        let path = temp_path("roundtrip");
        let mut j = create(&path);
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let scan = scan_journal(&path);
        let (records, report) = (scan.records, scan.report);
        assert!(report.is_empty(), "{}", report.render_human());
        assert_eq!(records.len(), 1 + sample_records().len());
        let mut st = ServiceState::fold(0, &records).unwrap();
        st.recover(1);
        assert_eq!(st.jobs().len(), 2);
        assert!(matches!(st.jobs()[0].state, JobState::Done { .. }));
        assert_eq!(st.jobs()[1].state, JobState::Queued);
        assert_eq!(st.jobs()[1].retries, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix() {
        let path = temp_path("torn");
        let mut j = create(&path);
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        // Chop the file mid-way through the last record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let scan = scan_journal(&path);
        assert!(scan.report.has(Code::Srv007));
        assert!(!scan.report.has_errors(), "a torn tail is recoverable");
        assert_eq!(scan.records.len(), sample_records().len()); // meta + all but the torn one
        let st = ServiceState::fold(0, &scan.records).unwrap();
        assert_eq!(st.jobs().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_refuses_the_journal() {
        let path = temp_path("version");
        std::fs::write(
            &path,
            "{\"t\":\"meta\",\"version\":99}\n{\"t\":\"reject\",\"id\":0}\n",
        )
        .unwrap();
        let scan = scan_journal(&path);
        let (records, report) = (scan.records, scan.report);
        assert!(records.is_empty());
        assert!(report.has(Code::Srv007));
        assert!(report.has_errors(), "a version mismatch is not recoverable");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_flags_inconsistencies_as_srv009() {
        // Each journal ends in a record the fold refuses; recovery reports
        // it as an SRV009 error and abandons the journal
        // (`chaos_recovery::fold_refusals_abandon_recovery`).
        let accept = |id: usize| Record::Accept {
            id,
            name: format!("srad#{id}"),
            program: "srad".into(),
            scale: 0.2,
        };
        let dispatch = Record::Dispatch {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            predicted_s: 1.0,
            attempt: 0,
        };
        let done = Record::Done {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            end_s: 1.0,
            predicted_s: 1.0,
        };
        let requeue = Record::Requeue {
            id: 7,
            attempt: 1,
            backoff_s: 0.1,
            reason: "x".into(),
        };
        for (tail, why) in [
            (vec![accept(0), accept(2)], "re-applying produced"),
            (vec![accept(0), done.clone()], "not running"),
            (vec![accept(0), dispatch, done.clone(), done], "not running"),
            (vec![accept(0), requeue], "unknown job 7"),
        ] {
            let mut records = vec![Record::Meta {
                version: JOURNAL_FORMAT_VERSION,
                machines: 1,
            }];
            records.extend(tail);
            let (at, msg) = ServiceState::fold(0, &records).unwrap_err();
            assert_eq!(at, records.len() - 1, "{msg}");
            assert!(msg.contains(why), "{msg}");
        }
    }

    #[test]
    fn done_before_dispatch_abandons_the_journal() {
        // Every record parses, but the story is impossible — `done` precedes its
        // `dispatch`. scan_journal must flag it at error severity so
        // recovery abandons the journal.
        let path = temp_path("causality");
        let mut j = create(&path);
        j.append(&Record::Accept {
            id: 0,
            name: "srad#0".into(),
            program: "srad".into(),
            scale: 0.2,
        })
        .unwrap();
        j.append(&Record::Done {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            end_s: 1.0,
            predicted_s: 1.0,
        })
        .unwrap();
        j.append(&Record::Dispatch {
            id: 0,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            predicted_s: 1.0,
            attempt: 0,
        })
        .unwrap();
        drop(j);
        let report = scan_journal(&path).report;
        assert!(report.has(Code::Srv010), "{}", report.render_human());
        assert!(
            report.has_errors(),
            "causality violations must abandon recovery"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn causality_accepts_every_live_shape() {
        // Clean journals in every shape the daemon actually writes:
        // dispatch/done, dispatch/requeue/redispatch, dead-letter,
        // eviction before the per-job requeues, and a recovery boundary
        // that voids in-flight dispatches.
        let mut records = vec![Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines: 2,
        }];
        records.extend(sample_records());
        // Job 1 was requeued (attempt 1); redispatch and kill in flight.
        records.push(Record::Dispatch {
            id: 1,
            machine: 1,
            device: Device::Cpu,
            start_s: 5.0,
            predicted_s: 2.0,
            attempt: 1,
        });
        // Restart: the open dispatch of job 1 becomes pending again.
        records.push(Record::Recovered {
            jobs: 2,
            machines: 2,
        });
        records.push(Record::Dispatch {
            id: 1,
            machine: 0,
            device: Device::Gpu,
            start_s: 0.0,
            predicted_s: 2.0,
            attempt: 1,
        });
        records.push(Record::Requeue {
            id: 1,
            attempt: 2,
            backoff_s: 0.1,
            reason: "injected job failure".into(),
        });
        records.push(Record::Dispatch {
            id: 1,
            machine: 0,
            device: Device::Cpu,
            start_s: 1.0,
            predicted_s: 2.0,
            attempt: 2,
        });
        records.push(Record::Dead {
            id: 1,
            reason: "gave up".into(),
        });
        let report = check_causality(&records);
        assert!(report.is_empty(), "{}", report.render_human());
        // And every record-boundary prefix is itself causal — exactly
        // the journals a kill can leave behind.
        for cut in 0..=records.len() {
            assert!(
                check_causality(&records[..cut]).is_empty(),
                "prefix {cut} flagged"
            );
        }
    }

    #[test]
    fn causality_rejects_impossible_histories() {
        let accept = |id: usize| Record::Accept {
            id,
            name: format!("srad#{id}"),
            program: "srad".into(),
            scale: 0.2,
        };
        let dispatch = |id: usize, machine: usize, attempt: u32| Record::Dispatch {
            id,
            machine,
            device: Device::Cpu,
            start_s: 0.0,
            predicted_s: 1.0,
            attempt,
        };
        // Overlapping dispatches of one job.
        let r = check_causality(&[accept(0), dispatch(0, 0, 0), dispatch(0, 1, 0)]);
        assert_eq!(r.count(Code::Srv010), 1, "{}", r.render_human());
        // Requeue without an open dispatch.
        let r = check_causality(&[
            accept(0),
            Record::Requeue {
                id: 0,
                attempt: 1,
                backoff_s: 0.1,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Retry numbering must be contiguous: attempt 2 after attempt 0.
        let r = check_causality(&[
            accept(0),
            dispatch(0, 0, 0),
            Record::Requeue {
                id: 0,
                attempt: 2,
                backoff_s: 0.1,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Dispatch attempt must match retries consumed.
        let r = check_causality(&[accept(0), dispatch(0, 0, 3)]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Done on a machine the job was never dispatched to.
        let r = check_causality(&[
            accept(0),
            dispatch(0, 0, 0),
            Record::Done {
                id: 0,
                machine: 1,
                device: Device::Cpu,
                start_s: 0.0,
                end_s: 1.0,
                predicted_s: 1.0,
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Dead-letter without an open dispatch.
        let r = check_causality(&[
            accept(0),
            Record::Dead {
                id: 0,
                reason: "x".into(),
            },
        ]);
        assert_eq!(r.count(Code::Srv010), 1);
        // Reject while running.
        let r = check_causality(&[accept(0), dispatch(0, 0, 0), Record::Reject { id: 0 }]);
        assert_eq!(r.count(Code::Srv010), 1);
        // All SRV010s are errors by default.
        assert!(r.has_errors());
    }

    #[test]
    fn every_prefix_replays_without_errors() {
        // The fold must accept any record-boundary prefix: that is
        // exactly the state a kill can leave behind.
        let mut records = vec![Record::Meta {
            version: JOURNAL_FORMAT_VERSION,
            machines: 2,
        }];
        records.extend(sample_records());
        // Job 1 was requeued; its retry runs and is dead-lettered.
        records.push(Record::Dispatch {
            id: 1,
            machine: 1,
            device: Device::Cpu,
            start_s: 4.0,
            predicted_s: 2.0,
            attempt: 1,
        });
        records.push(Record::Dead {
            id: 1,
            reason: "retries exhausted".into(),
        });
        assert!(check_causality(&records).is_empty());
        for cut in 1..=records.len() {
            let st = ServiceState::fold(0, &records[..cut])
                .unwrap_or_else(|(k, e)| panic!("prefix {cut}: record {k}: {e}"));
            assert!(st.jobs().len() <= 2);
        }
    }
}
