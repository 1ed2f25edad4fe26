//! The coordinator's own write-ahead journal ("fleetlog").
//!
//! The shard journals make each *shard* kill -9-safe; this log makes the
//! *coordinator* recoverable: every placement decision is journaled via
//! the same write-ahead log ([`corun_serve::wal`]: one writer with a
//! commit point, one scan, one tail repair) the shards use, so `corun
//! fleet --recover` rebuilds the router books after a coordinator crash
//! with nothing lost and nothing double-dispatched. This module is only
//! the vocabulary ([`FleetRecord`]) and its fold ([`replay_fleetlog`]).
//!
//! The exactly-once trick is the `intent` record: it is committed *before*
//! the submit RPC leaves the coordinator. A crash between the RPC and
//! its `confirm` leaves an intent-without-confirm in the log, which
//! recovery maps to the in-doubt state — the job is then re-submitted
//! under its idempotent key *to the same shard*, where the shard-side
//! dedup (journaled in its own `accept` records) returns the original id
//! instead of running a second copy.

use corun_serve::json::{obj, Json};
use corun_serve::LineRecord;

/// Fleetlog format revision, checked on recovery.
pub const FLEETLOG_FORMAT_VERSION: u32 = 1;

/// One coordinator decision, journaled before its effects are
/// observable.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetRecord {
    /// Header: format version and fleet shape.
    Meta {
        /// Format revision.
        version: u32,
        /// Shard count the books are indexed by.
        shards: usize,
        /// The cluster power cap, watts.
        cluster_cap_w: f64,
    },
    /// A job entered the fleet under an idempotent key.
    Admit {
        /// Fleet job id (dense, admission order).
        id: usize,
        /// Idempotent submit key (doubles as the shard-side job name).
        key: String,
        /// Single-job spec fragment to resubmit from.
        spec: String,
    },
    /// About to submit `id` to `shard` — written *before* the RPC.
    Intent {
        /// Fleet job id.
        id: usize,
        /// Destination shard.
        shard: usize,
    },
    /// The shard accepted `id` as its `local_id`.
    Confirm {
        /// Fleet job id.
        id: usize,
        /// Accepting shard.
        shard: usize,
        /// Shard-local job id.
        local_id: usize,
    },
    /// The submission certainly did not land; the job returned to the
    /// backlog.
    Abort {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: completed.
    Done {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: dead-lettered.
    Dead {
        /// Fleet job id.
        id: usize,
    },
    /// Terminal: rejected.
    Rejected {
        /// Fleet job id.
        id: usize,
    },
    /// A submitted job was re-placed off a journal-less incarnation.
    Requeue {
        /// Fleet job id.
        id: usize,
    },
    /// The per-shard cap budget after a rebalance, watts.
    Caps {
        /// Booked cap per shard.
        caps_w: Vec<f64>,
    },
    /// A coordinator recovery completed from this log.
    Recovered,
}

impl LineRecord for FleetRecord {
    const FORMAT_VERSION: u32 = FLEETLOG_FORMAT_VERSION;

    fn to_json(&self) -> String {
        let j = match self {
            FleetRecord::Meta {
                version,
                shards,
                cluster_cap_w,
            } => obj(vec![
                ("t", Json::Str("meta".into())),
                ("v", Json::Num(f64::from(*version))),
                ("shards", Json::Num(*shards as f64)),
                ("cluster_cap_w", Json::Num(*cluster_cap_w)),
            ]),
            FleetRecord::Admit { id, key, spec } => obj(vec![
                ("t", Json::Str("admit".into())),
                ("id", Json::Num(*id as f64)),
                ("key", Json::Str(key.clone())),
                ("spec", Json::Str(spec.clone())),
            ]),
            FleetRecord::Intent { id, shard } => obj(vec![
                ("t", Json::Str("intent".into())),
                ("id", Json::Num(*id as f64)),
                ("shard", Json::Num(*shard as f64)),
            ]),
            FleetRecord::Confirm {
                id,
                shard,
                local_id,
            } => obj(vec![
                ("t", Json::Str("confirm".into())),
                ("id", Json::Num(*id as f64)),
                ("shard", Json::Num(*shard as f64)),
                ("local", Json::Num(*local_id as f64)),
            ]),
            FleetRecord::Abort { id } => obj(vec![
                ("t", Json::Str("abort".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Done { id } => obj(vec![
                ("t", Json::Str("done".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Dead { id } => obj(vec![
                ("t", Json::Str("dead".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Rejected { id } => obj(vec![
                ("t", Json::Str("rejected".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Requeue { id } => obj(vec![
                ("t", Json::Str("requeue".into())),
                ("id", Json::Num(*id as f64)),
            ]),
            FleetRecord::Caps { caps_w } => obj(vec![
                ("t", Json::Str("caps".into())),
                (
                    "caps_w",
                    Json::Arr(caps_w.iter().map(|&c| Json::Num(c)).collect()),
                ),
            ]),
            FleetRecord::Recovered => obj(vec![("t", Json::Str("recovered".into()))]),
        };
        j.render()
    }

    fn from_json(line: &str) -> Result<Option<FleetRecord>, String> {
        let j = Json::parse(line)?;
        Ok(Some(match j.text("t")?.as_str() {
            // A header without `v` reads as v0 and earns the version
            // refusal rather than a parse error.
            "meta" => FleetRecord::Meta {
                version: j.get("v").and_then(Json::as_index).unwrap_or(0) as u32,
                shards: j.idx("shards")?,
                cluster_cap_w: j.num("cluster_cap_w")?,
            },
            "admit" => FleetRecord::Admit {
                id: j.idx("id")?,
                key: j.text("key")?,
                spec: j.text("spec")?,
            },
            "intent" => FleetRecord::Intent {
                id: j.idx("id")?,
                shard: j.idx("shard")?,
            },
            "confirm" => FleetRecord::Confirm {
                id: j.idx("id")?,
                shard: j.idx("shard")?,
                local_id: j.idx("local")?,
            },
            "abort" => FleetRecord::Abort { id: j.idx("id")? },
            "done" => FleetRecord::Done { id: j.idx("id")? },
            "dead" => FleetRecord::Dead { id: j.idx("id")? },
            "rejected" => FleetRecord::Rejected { id: j.idx("id")? },
            "requeue" => FleetRecord::Requeue { id: j.idx("id")? },
            "caps" => FleetRecord::Caps {
                caps_w: j
                    .get("caps_w")
                    .and_then(Json::as_arr)
                    .ok_or("record missing `caps_w`")?
                    .iter()
                    .map(|v| v.as_f64().ok_or("non-numeric cap"))
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "recovered" => FleetRecord::Recovered,
            _ => return Ok(None),
        }))
    }

    fn header_version(&self) -> Option<u32> {
        match self {
            FleetRecord::Meta { version, .. } => Some(*version),
            _ => None,
        }
    }
}

/// Where recovery concluded one fleet job stands.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredLoc {
    /// Not (certainly) submitted anywhere: re-place and resubmit.
    Pending,
    /// An intent without a confirm: the submit RPC may or may not have
    /// landed on this shard. Must be resolved by keyed resubmission to
    /// the *same* shard, never re-placed.
    InDoubt(usize),
    /// Confirmed on a shard under a local id.
    Submitted {
        /// Accepting shard.
        shard: usize,
        /// Shard-local id.
        local_id: usize,
    },
    /// Terminal: done, on the shard that ran it.
    Done(usize),
    /// Terminal: dead-lettered, on the shard that spent its retries.
    Dead(usize),
    /// Terminal: rejected.
    Rejected,
}

/// One fleet job rebuilt from the log.
#[derive(Debug, Clone)]
pub struct RecoveredFleetJob {
    /// Idempotent submit key.
    pub key: String,
    /// Spec fragment to resubmit from.
    pub spec: String,
    /// Reconstructed location.
    pub loc: RecoveredLoc,
    /// Confirmed submissions counted off `confirm` records.
    pub submits: u32,
    /// `requeue` records counted.
    pub requeues: u32,
}

/// The whole fold of a scanned log.
#[derive(Debug, Default)]
pub struct RecoveredFleet {
    /// One entry per fleet job id, dense in admission order.
    pub jobs: Vec<RecoveredFleetJob>,
    /// Shard count from `meta`.
    pub shards: usize,
    /// Cluster cap from `meta`, watts.
    pub cluster_cap_w: f64,
    /// The last booked per-shard cap split, if any was journaled.
    pub caps_w: Option<Vec<f64>>,
    /// Prior `recovered` markers (this recovery will add one more).
    pub recoveries: usize,
}

/// Fold scanned records into final per-job state. The scan
/// ([`corun_serve::wal::scan`]) has already checked the `meta` header and
/// its version. Later records win; any reference to an unknown id or an
/// out-of-order transition is an error (the log is append-only and
/// single-writer, so these only appear under corruption).
pub fn replay_fleetlog(records: &[FleetRecord]) -> Result<RecoveredFleet, String> {
    let mut out = RecoveredFleet::default();
    for (i, rec) in records.iter().enumerate() {
        let at = |msg: String| format!("record {}: {msg}", i + 1);
        match rec {
            FleetRecord::Meta {
                shards,
                cluster_cap_w,
                ..
            } => {
                out.shards = *shards;
                out.cluster_cap_w = *cluster_cap_w;
            }
            FleetRecord::Admit { id, key, spec } => {
                if *id != out.jobs.len() {
                    return Err(at(format!(
                        "admit id {id} out of order (expected {})",
                        out.jobs.len()
                    )));
                }
                out.jobs.push(RecoveredFleetJob {
                    key: key.clone(),
                    spec: spec.clone(),
                    loc: RecoveredLoc::Pending,
                    submits: 0,
                    requeues: 0,
                });
            }
            FleetRecord::Intent { id, shard } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("intent for unknown job {id}")))?;
                job.loc = RecoveredLoc::InDoubt(*shard);
            }
            FleetRecord::Confirm {
                id,
                shard,
                local_id,
            } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("confirm for unknown job {id}")))?;
                job.loc = RecoveredLoc::Submitted {
                    shard: *shard,
                    local_id: *local_id,
                };
                job.submits += 1;
            }
            FleetRecord::Abort { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("abort for unknown job {id}")))?;
                job.loc = RecoveredLoc::Pending;
            }
            FleetRecord::Done { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("done for unknown job {id}")))?;
                let RecoveredLoc::Submitted { shard, .. } = job.loc else {
                    return Err(at(format!("done for job {id} never confirmed anywhere")));
                };
                job.loc = RecoveredLoc::Done(shard);
            }
            FleetRecord::Dead { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("dead for unknown job {id}")))?;
                let RecoveredLoc::Submitted { shard, .. } = job.loc else {
                    return Err(at(format!("dead for job {id} never confirmed anywhere")));
                };
                job.loc = RecoveredLoc::Dead(shard);
            }
            FleetRecord::Rejected { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("rejected for unknown job {id}")))?;
                job.loc = RecoveredLoc::Rejected;
            }
            FleetRecord::Requeue { id } => {
                let job = out
                    .jobs
                    .get_mut(*id)
                    .ok_or_else(|| at(format!("requeue for unknown job {id}")))?;
                job.loc = RecoveredLoc::Pending;
                job.requeues += 1;
            }
            FleetRecord::Caps { caps_w } => out.caps_w = Some(caps_w.clone()),
            FleetRecord::Recovered => out.recoveries += 1,
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FleetRecord> {
        vec![
            FleetRecord::Meta {
                version: FLEETLOG_FORMAT_VERSION,
                shards: 2,
                cluster_cap_w: 40.0,
            },
            FleetRecord::Admit {
                id: 0,
                key: "sradx0.05#0".into(),
                spec: "srad x0.05\n".into(),
            },
            FleetRecord::Admit {
                id: 1,
                key: "sradx0.05#1".into(),
                spec: "srad x0.05\n".into(),
            },
            FleetRecord::Caps {
                caps_w: vec![20.0, 20.0],
            },
            FleetRecord::Intent { id: 0, shard: 0 },
            FleetRecord::Confirm {
                id: 0,
                shard: 0,
                local_id: 0,
            },
            FleetRecord::Intent { id: 1, shard: 1 },
            FleetRecord::Done { id: 0 },
        ]
    }

    #[test]
    fn records_roundtrip_through_json() {
        for rec in sample_records() {
            let line = rec.to_json();
            let back = FleetRecord::from_json(&line)
                .expect("parse")
                .expect("known type");
            assert_eq!(back, rec, "roundtrip {line}");
        }
    }

    #[test]
    fn replay_maps_intent_without_confirm_to_in_doubt() {
        let rec = replay_fleetlog(&sample_records()).expect("replay");
        assert_eq!(rec.jobs.len(), 2);
        assert_eq!(rec.jobs[0].loc, RecoveredLoc::Done(0));
        assert_eq!(rec.jobs[0].submits, 1);
        assert_eq!(rec.jobs[1].loc, RecoveredLoc::InDoubt(1));
        assert_eq!(rec.caps_w, Some(vec![20.0, 20.0]));
    }
}
