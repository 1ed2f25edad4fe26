//! Snapshot codec: the jobs a checkpoint lists, plus the small rest of a
//! [`ServiceState`], as one compact JSON document.
//!
//! The daemon periodically embeds a `Snapshot` journal record carrying
//! an encoded document plus the full-state fingerprint, written only at
//! quiescent points where the journal and the in-memory state agree (see
//! `docs/REPLAY.md`). A document holds `jobs_len`, `[id, job]` pairs for
//! the jobs it lists, and the whole `queue`, `machines`, `shutdown` and
//! `counters`. The daemon lists only the jobs journal records named since
//! its previous snapshot ([`Record::touched_jobs`]), so a checkpoint costs
//! O(state changed), not O(history). A full snapshot is the same document
//! listing every id: the first of a journal and the one after recovery.
//!
//! [`apply_state`] folds one document into a state; folding a journal's
//! snapshots in order from an empty state rebuilds what the daemon
//! recorded, which `corun replay --diff` compares against re-execution.
//!
//! Floats are rendered with Rust's shortest-roundtrip formatting (the
//! `json` module), so folding reproduces every `f64` exactly and
//! `fingerprint()` equality is preserved.
//!
//! [`Record::touched_jobs`]: crate::journal::Record::touched_jobs

use crate::json::{obj, Json};
use crate::state::{Counters, JobCore, JobState, MachineCore, ServiceState};
use apu_sim::Device;
use corun_core::JobId;
use std::collections::VecDeque;

fn device_json(d: Device) -> Json {
    Json::Str(
        match d {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
        }
        .into(),
    )
}

fn opt_id(slot: Option<usize>) -> Json {
    match slot {
        Some(id) => Json::Num(id as f64),
        None => Json::Null,
    }
}

fn job_json(j: &JobCore) -> Json {
    let mut fields = vec![
        ("name", Json::Str(j.name.clone())),
        ("program", Json::Str(j.program.clone())),
        ("scale", Json::Num(j.scale)),
        ("retries", Json::Num(f64::from(j.retries))),
        ("dispatches", Json::Num(f64::from(j.dispatches))),
    ];
    match &j.state {
        JobState::Queued => fields.push(("st", Json::Str("queued".into()))),
        JobState::Rejected => fields.push(("st", Json::Str("rejected".into()))),
        JobState::Running {
            machine,
            device,
            start_s,
            predicted_s,
        } => {
            fields.push(("st", Json::Str("running".into())));
            fields.push(("machine", Json::Num(*machine as f64)));
            fields.push(("device", device_json(*device)));
            fields.push(("start_s", Json::Num(*start_s)));
            fields.push(("predicted_s", Json::Num(*predicted_s)));
        }
        JobState::Done {
            machine,
            device,
            start_s,
            end_s,
            predicted_s,
        } => {
            fields.push(("st", Json::Str("done".into())));
            fields.push(("machine", Json::Num(*machine as f64)));
            fields.push(("device", device_json(*device)));
            fields.push(("start_s", Json::Num(*start_s)));
            fields.push(("end_s", Json::Num(*end_s)));
            fields.push(("predicted_s", Json::Num(*predicted_s)));
        }
        JobState::DeadLetter { reason } => {
            fields.push(("st", Json::Str("dead".into())));
            fields.push(("reason", Json::Str(reason.clone())));
        }
    }
    obj(fields)
}

/// Encode `st` as one snapshot document listing the jobs `ids` names,
/// each once and in increasing order (duplicates are fine). Every id must
/// be below `st.jobs().len()`; pass `0..st.jobs().len()` for a full snapshot.
pub fn encode_state(st: &ServiceState, ids: impl IntoIterator<Item = JobId>) -> String {
    let mut ids: Vec<JobId> = ids.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    let c = st.counters;
    obj(vec![
        ("jobs_len", Json::Num(st.jobs().len() as f64)),
        (
            "jobs",
            Json::Arr(
                ids.into_iter()
                    .map(|id| Json::Arr(vec![Json::Num(id as f64), job_json(&st.jobs()[id])]))
                    .collect(),
            ),
        ),
        (
            "queue",
            Json::Arr(st.queue.iter().map(|&id| Json::Num(id as f64)).collect()),
        ),
        (
            "machines",
            Json::Arr(
                st.machines
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("down", Json::Bool(m.down)),
                            ("cpu", opt_id(m.running[0])),
                            ("gpu", opt_id(m.running[1])),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("shutdown", Json::Bool(st.shutdown)),
        (
            "counters",
            obj(vec![
                ("accepted", Json::Num(c.accepted as f64)),
                ("rejected", Json::Num(c.rejected as f64)),
                ("dispatched", Json::Num(c.dispatched as f64)),
                ("completed", Json::Num(c.completed as f64)),
                ("requeued", Json::Num(c.requeued as f64)),
                ("dead_lettered", Json::Num(c.dead_lettered as f64)),
                ("evictions", Json::Num(c.evictions as f64)),
            ]),
        ),
    ])
    .render()
}

fn req<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn req_idx(v: &Json, key: &str) -> Result<usize, String> {
    req(v, key)?
        .as_index()
        .ok_or_else(|| format!("`{key}` is not an index"))
}

fn req_num(v: &Json, key: &str) -> Result<f64, String> {
    req(v, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(req(v, key)?
        .as_str()
        .ok_or_else(|| format!("`{key}` is not a string"))?
        .to_owned())
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    req(v, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a bool"))
}

fn req_device(v: &Json, key: &str) -> Result<Device, String> {
    match req_str(v, key)?.as_str() {
        "cpu" => Ok(Device::Cpu),
        "gpu" => Ok(Device::Gpu),
        other => Err(format!("bad device `{other}`")),
    }
}

fn decode_job(v: &Json, k: usize) -> Result<JobCore, String> {
    let err = |e: String| format!("job {k}: {e}");
    let state = match req_str(v, "st").map_err(err)?.as_str() {
        "queued" => JobState::Queued,
        "rejected" => JobState::Rejected,
        "running" => JobState::Running {
            machine: req_idx(v, "machine").map_err(err)?,
            device: req_device(v, "device").map_err(err)?,
            start_s: req_num(v, "start_s").map_err(err)?,
            predicted_s: req_num(v, "predicted_s").map_err(err)?,
        },
        "done" => JobState::Done {
            machine: req_idx(v, "machine").map_err(err)?,
            device: req_device(v, "device").map_err(err)?,
            start_s: req_num(v, "start_s").map_err(err)?,
            end_s: req_num(v, "end_s").map_err(err)?,
            predicted_s: req_num(v, "predicted_s").map_err(err)?,
        },
        "dead" => JobState::DeadLetter {
            reason: req_str(v, "reason").map_err(err)?,
        },
        other => return Err(format!("job {k}: unknown state `{other}`")),
    };
    Ok(JobCore {
        name: req_str(v, "name").map_err(err)?,
        program: req_str(v, "program").map_err(err)?,
        scale: req_num(v, "scale").map_err(err)?,
        state,
        retries: req_idx(v, "retries").map_err(err)? as u32,
        dispatches: req_idx(v, "dispatches").map_err(err)? as u32,
    })
}

fn decode_slot(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match req(v, key)? {
        Json::Null => Ok(None),
        j => j
            .as_index()
            .map(Some)
            .ok_or_else(|| format!("`{key}` is not an index or null")),
    }
}

/// Decode one `[id, job]` pair of a document's `jobs` list.
fn decode_entry(v: &Json) -> Result<(JobId, JobCore), String> {
    match v.as_arr() {
        Some([id, job]) => {
            let id = id.as_index().ok_or("job entry id is not an index")?;
            Ok((id, decode_job(job, id)?))
        }
        _ => Err("job entry is not an `[id, job]` pair".into()),
    }
}

/// Fold one document [`encode_state`] produced into `st`: the job table
/// grows to `jobs_len`, every listed job replaces its entry, and the
/// queue, machines, shutdown flag and counters are replaced outright.
/// Folding a journal's snapshots in order from `ServiceState::new(0)`
/// rebuilds the state the last of them recorded.
///
/// Any structural problem is an error and leaves `st` untouched — a
/// document that does not decode exactly is worthless as a replay
/// checkpoint. So is one that lists an id out of order or at or past
/// `jobs_len`, shrinks the job table, or leaves unlisted a job it adds
/// (an id from `st.jobs().len()` up to `jobs_len`).
pub fn apply_state(st: &mut ServiceState, text: &str) -> Result<(), String> {
    let v = Json::parse(text).map_err(|e| format!("snapshot is not valid JSON: {e}"))?;
    let jobs_len = req_idx(&v, "jobs_len")?;
    let known = st.jobs().len();
    if jobs_len < known {
        return Err(format!(
            "`jobs_len` {jobs_len} would shrink a job table of {known}"
        ));
    }
    let jobs = req(&v, "jobs")?
        .as_arr()
        .ok_or("`jobs` is not an array")?
        .iter()
        .map(decode_entry)
        .collect::<Result<Vec<(JobId, JobCore)>, String>>()?;
    // Listed ids strictly increase below `jobs_len`, and the new ones
    // among them are exactly `known..jobs_len`.
    let mut next_new = known;
    for (k, &(id, _)) in jobs.iter().enumerate() {
        if id >= jobs_len {
            return Err(format!("job {id} is listed past `jobs_len` {jobs_len}"));
        }
        if k > 0 && id <= jobs[k - 1].0 {
            return Err(format!("job {id} is listed out of order"));
        }
        if id == next_new {
            next_new += 1;
        }
    }
    if next_new != jobs_len {
        return Err(format!(
            "job {next_new} is new (`jobs_len` {jobs_len}) but not listed"
        ));
    }
    let queue = req(&v, "queue")?
        .as_arr()
        .ok_or("`queue` is not an array")?
        .iter()
        .map(|j| j.as_index().ok_or("queue entry is not an index".to_owned()))
        .collect::<Result<VecDeque<usize>, String>>()?;
    let machines = req(&v, "machines")?
        .as_arr()
        .ok_or("`machines` is not an array")?
        .iter()
        .enumerate()
        .map(|(k, m)| {
            let err = |e: String| format!("machine {k}: {e}");
            Ok(MachineCore {
                down: req_bool(m, "down").map_err(err)?,
                running: [
                    decode_slot(m, "cpu").map_err(err)?,
                    decode_slot(m, "gpu").map_err(err)?,
                ],
            })
        })
        .collect::<Result<Vec<MachineCore>, String>>()?;
    let c = req(&v, "counters")?;
    let counters = Counters {
        accepted: req_idx(c, "accepted")?,
        rejected: req_idx(c, "rejected")?,
        dispatched: req_idx(c, "dispatched")?,
        completed: req_idx(c, "completed")?,
        requeued: req_idx(c, "requeued")?,
        dead_lettered: req_idx(c, "dead_lettered")?,
        evictions: req_idx(c, "evictions")?,
    };
    let shutdown = req_bool(&v, "shutdown")?;
    for (id, job) in jobs {
        st.replace_job(id, job)
            .expect("listed ids were checked against the table above");
    }
    st.queue = queue;
    st.machines = machines;
    st.shutdown = shutdown;
    st.counters = counters;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use corun_core::RetryPolicy;

    /// A state exercising every `JobState` arm: done, dead-lettered,
    /// rejected, queued, running, plus a crashed machine and shutdown.
    fn busy_state() -> ServiceState {
        let retry = RetryPolicy {
            max_retries: 1,
            ..RetryPolicy::default()
        };
        let mut st = ServiceState::new(2);
        for k in 0..5 {
            st.accept(&format!("srad#{k}"), "srad", 0.25).unwrap();
        }
        let (rejected, _) = st.accept("lud#0", "lud", 0.1).unwrap();
        st.reject(rejected).unwrap();
        st.dispatch(0, 0, Device::Gpu, 0.0, 3.5).unwrap();
        st.dispatch(1, 1, Device::Cpu, 0.0, 2.0).unwrap();
        st.complete(0, 3.25).unwrap();
        st.fail(1, &retry, "injected job failure").unwrap();
        st.dispatch(1, 1, Device::Cpu, 4.0, 2.0).unwrap();
        st.fail(1, &retry, "injected job failure").unwrap(); // dead-letters
        st.dispatch(2, 0, Device::Cpu, 4.0, 1.0).unwrap();
        st.crash(0, 5.0, &retry, "machine crash").unwrap();
        st.begin_shutdown();
        st
    }

    /// Fold `docs` in order from an empty state.
    fn fold(docs: &[String]) -> Result<ServiceState, String> {
        let mut st = ServiceState::new(0);
        for doc in docs {
            apply_state(&mut st, doc)?;
        }
        Ok(st)
    }

    #[test]
    fn snapshot_roundtrip_preserves_state_and_fingerprint() {
        let st = busy_state();
        let text = encode_state(&st, 0..st.jobs().len());
        let back = fold(std::slice::from_ref(&text)).expect("decode");
        assert_eq!(back, st);
        assert_eq!(back.fingerprint(), st.fingerprint());
        // And the encoding itself is stable across a second round-trip.
        assert_eq!(encode_state(&back, 0..back.jobs().len()), text);
    }

    #[test]
    fn empty_state_roundtrips() {
        let st = ServiceState::new(0);
        let back = fold(&[encode_state(&st, [])]).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn deltas_fold_to_the_latest_state() {
        let retry = RetryPolicy::default();
        let mut st = ServiceState::new(2);
        for k in 0..4 {
            st.accept(&format!("srad#{k}"), "srad", 0.25).unwrap();
        }
        let full = encode_state(&st, 0..4);
        // Touch job 1 and add job 4; jobs 0, 2 and 3 stay as listed.
        st.dispatch(1, 0, Device::Gpu, 0.0, 3.5).unwrap();
        st.fail(1, &retry, "injected job failure").unwrap();
        st.accept("lud#0", "lud", 0.1).unwrap();
        // Unsorted, duplicated ids are listed once, in order.
        let delta = encode_state(&st, [4, 1, 4]);
        assert_eq!(delta, encode_state(&st, [1, 4]));
        let back = fold(&[full, delta]).unwrap();
        assert_eq!(back, st);
        assert_eq!(back.fingerprint(), st.fingerprint());
    }

    #[test]
    fn a_delta_must_list_every_job_it_adds() {
        let mut st = ServiceState::new(1);
        st.accept("a#0", "srad", 0.1).unwrap();
        let first = encode_state(&st, [0]);
        st.accept("a#1", "srad", 0.1).unwrap();
        st.accept("a#2", "srad", 0.1).unwrap();
        let mut base = fold(&[first]).unwrap();
        let before = base.clone();
        let err = apply_state(&mut base, &encode_state(&st, [2])).unwrap_err();
        assert!(err.contains("job 1 is new"), "{err}");
        // A refused document leaves the state untouched.
        assert_eq!(base, before);
        // Nor may a document shrink the table.
        let err = apply_state(
            &mut fold(&[encode_state(&st, 0..3)]).unwrap(),
            &encode_state(&before, []),
        )
        .unwrap_err();
        assert!(err.contains("shrink"), "{err}");
    }

    #[test]
    fn decode_rejects_malformed_documents() {
        let mut st = ServiceState::new(0);
        assert!(apply_state(&mut st, "not json").is_err());
        assert!(apply_state(&mut st, "{}").is_err());
        assert!(apply_state(
            &mut st,
            r#"{"jobs_len":0,"jobs":[],"queue":[],"machines":[]}"#
        )
        .is_err());
        let counters = r#""counters":{"accepted":0,"rejected":0,"dispatched":0,"completed":0,"requeued":0,"dead_lettered":0,"evictions":0}"#;
        let doc = |jobs: &str| {
            format!(
                r#"{{"jobs_len":1,"jobs":{jobs},"queue":[],"machines":[],"shutdown":false,{counters}}}"#
            )
        };
        assert!(apply_state(&mut st, &doc(r#"[[0,{"name":"a"}]]"#)).is_err());
        assert!(apply_state(&mut st, &doc(r#"[{"name":"a"}]"#)).is_err());
        assert!(apply_state(&mut st, &doc(r#"[[1,{"name":"a"}]]"#)).is_err());
        assert_eq!(st, ServiceState::new(0));
    }
}
