//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request object per line, one response object per line. Every
//! response carries `"ok"`; failures add `"error"` (a stable machine
//! code, see [`docs/SERVICE.md`]) and a human `"message"`. The full
//! schema catalogue lives in `docs/SERVICE.md`.
//!
//! [`handle_request`] is the single entry point — the TCP server feeds it
//! raw lines, and tests can drive the whole protocol without a socket.

use crate::json::{obj, Json};
use crate::service::{
    JobState, JobStatus, JournalFailed, LoadSnapshot, MetricsSnapshot, Service, SubmitError,
};
use apu_sim::Device;

/// Protocol revision, echoed by `ping` and checked by clients. Version 2
/// added the keyed batch form of `submit` (`items`) and the multi-id form
/// of `status` (`ids`); version 3 added the `load` object to both replies.
pub const PROTOCOL_VERSION: u32 = 3;

/// Handle one request line; always returns exactly one JSON line
/// (without the trailing newline).
pub fn handle_request(service: &Service, line: &str) -> String {
    match Json::parse(line) {
        Ok(req) => {
            let mut resp = dispatch(service, &req);
            stamp_identity(service, &req, &mut resp);
            resp.render()
        }
        Err(e) => error("bad_request", &format!("invalid JSON: {e}")).render(),
    }
}

/// Stamp every response with this incarnation's fencing identity
/// (`epoch`, `boot`) and echo the request's `seq` verbatim when present,
/// so a fleet coordinator can fence replies from stale incarnations and
/// reject stale/duplicated replies on a desynchronized connection.
fn stamp_identity(service: &Service, req: &Json, resp: &mut Json) {
    if let Json::Obj(fields) = resp {
        fields.push(("epoch".into(), Json::Num(service.epoch() as f64)));
        fields.push(("boot".into(), Json::Num(service.boot() as f64)));
        if let Some(seq) = req.get("seq").and_then(Json::as_f64) {
            fields.push(("seq".into(), Json::Num(seq)));
        }
    }
}

fn dispatch(service: &Service, req: &Json) -> Json {
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return error("bad_request", "missing string field `op`");
    };
    match op {
        "ping" => obj(vec![
            ("ok", Json::Bool(true)),
            ("service", Json::Str("corun-serve".into())),
            ("proto", Json::Num(PROTOCOL_VERSION as f64)),
        ]),
        "submit" if req.get("items").is_some() => keyed_batch(service, req),
        "submit" => {
            let Some(spec) = req.get("spec").and_then(Json::as_str) else {
                return error("bad_request", "submit needs a string field `spec`");
            };
            // An optional `key` makes the submit idempotent: retried
            // RPCs (lost replies, reconnects, recovered incarnations)
            // return the already-admitted id instead of a second copy.
            match req.get("key").and_then(Json::as_str) {
                Some(key) => match service.submit_spec_keyed(spec, key) {
                    Ok(ids) => ids_json(&ids),
                    Err(e) => submit_error_json(&e),
                },
                None => submit_specs(service, &[spec]),
            }
        }
        "batch" => {
            let Some(items) = req.get("specs").and_then(Json::as_arr) else {
                return error("bad_request", "batch needs an array field `specs`");
            };
            let mut specs = Vec::with_capacity(items.len());
            for item in items {
                match item.as_str() {
                    Some(s) => specs.push(s),
                    None => return error("bad_request", "`specs` entries must be strings"),
                }
            }
            submit_specs(service, &specs)
        }
        "status" if req.get("ids").is_some() => {
            let Some(ids) = req
                .get("ids")
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(Json::as_index).collect::<Option<Vec<_>>>())
            else {
                return error("bad_request", "`ids` must be an array of job ids");
            };
            let (states, load) = service.job_states_with_load(&ids);
            let phases = states
                .iter()
                .map(|st| Json::Str(st.as_ref().map_or("unknown", state_str).into()))
                .collect();
            committed(
                service,
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("phases", Json::Arr(phases)),
                    ("load", load_json(&load)),
                ]),
            )
        }
        "status" => {
            let Some(id) = req.get("id").and_then(Json::as_index) else {
                return error("bad_request", "status needs a numeric field `id`");
            };
            let reply = match service.job_status(id) {
                Some(status) => status_json(&status),
                None => error("unknown_job", &format!("no job with id {id}")),
            };
            committed(service, reply)
        }
        "metrics" => metrics_json(&service.metrics()),
        "watch" => {
            // Cursor-resumable read of the live-ops metrics ring: returns
            // every retained point newer than `since` (default 0 = all)
            // plus the cursor to poll with next.
            let since = match req.get("since") {
                None => 0,
                Some(v) => match v.as_index() {
                    Some(n) => n as u64,
                    None => return error("bad_request", "`since` must be a non-negative integer"),
                },
            };
            let (points, next) = service.watch(since);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("next", Json::Num(next as f64)),
                ("points", Json::Arr(points.iter().map(point_json).collect())),
            ])
        }
        "diagnostics" => {
            // SRV0xx fault/journal findings; Report::render_json emits a
            // JSON array, embed it verbatim.
            let report = service.chaos_report();
            let diags = Json::parse(&report.render_json())
                .unwrap_or_else(|_| Json::Str(report.render_human()));
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("count".into(), Json::Num(report.len() as f64)),
                ("diagnostics".into(), diags),
            ])
        }
        "set_cap" => {
            let Some(cap_w) = req.get("cap_w").and_then(Json::as_f64) else {
                return error("bad_request", "set_cap needs a numeric field `cap_w`");
            };
            if !cap_w.is_finite() || cap_w <= 0.0 {
                return error("bad_request", "`cap_w` must be finite and positive");
            }
            match service.set_cap_w(cap_w) {
                Ok(()) => obj(vec![("ok", Json::Bool(true)), ("cap_w", Json::Num(cap_w))]),
                Err(failed) => journal_failed_json(&failed),
            }
        }
        "shutdown" => {
            service.begin_shutdown();
            committed(service, obj(vec![("ok", Json::Bool(true))]))
        }
        other => error("unknown_op", &format!("unknown op `{other}`")),
    }
}

/// `submit` with `"items":[{"key","spec"}...]`: one keyed submit per
/// item under one lock hold and one commit. Each entry of `results` has
/// the shape of a single keyed `submit` reply; `load` is the shard's load
/// as that lock hold ends. A malformed item refuses the whole request
/// before anything is admitted.
fn keyed_batch(service: &Service, req: &Json) -> Json {
    let Some(items) = req.get("items").and_then(Json::as_arr) else {
        return error("bad_request", "`items` must be an array");
    };
    let mut pairs = Vec::with_capacity(items.len());
    for item in items {
        let key = item.get("key").and_then(Json::as_str);
        let spec = item.get("spec").and_then(Json::as_str);
        let (Some(key), Some(spec)) = (key, spec) else {
            return error(
                "bad_request",
                "`items` entries need string `key` and `spec`",
            );
        };
        pairs.push((key, spec));
    }
    let (outcomes, load) = service.submit_keyed_batch_with_load(&pairs);
    let results = outcomes
        .iter()
        .map(|r| match r {
            Ok(id) => ids_json(&[*id]),
            Err(e) => submit_error_json(e),
        })
        .collect();
    obj(vec![
        ("ok", Json::Bool(true)),
        ("results", Json::Arr(results)),
        ("load", load_json(&load)),
    ])
}

/// The `load` object of keyed-batch `submit` and multi-id `status`
/// replies: the fields of the same name in a `metrics` reply.
fn load_json(load: &LoadSnapshot) -> Json {
    obj(vec![
        ("queue_depth", Json::Num(load.queue_depth as f64)),
        ("submitted", Json::Num(load.submitted as f64)),
        ("completed", Json::Num(load.completed as f64)),
        ("dead_lettered", Json::Num(load.dead_lettered as f64)),
        ("workers_alive", Json::Num(load.workers_alive as f64)),
    ])
}

fn submit_specs(service: &Service, specs: &[&str]) -> Json {
    // A batch is all-or-nothing like a single multi-line spec, so just
    // join the fragments; the lint gate reports per-line locations.
    let text = specs.join("\n");
    match service.submit_spec(&text) {
        Ok(ids) => ids_json(&ids),
        Err(e) => submit_error_json(&e),
    }
}

fn ids_json(ids: &[usize]) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        (
            "ids",
            Json::Arr(ids.iter().map(|&i| Json::Num(i as f64)).collect()),
        ),
    ])
}

fn submit_error_json(e: &SubmitError) -> Json {
    match e {
        SubmitError::Lint(report) => {
            // Report::render_json emits a JSON document; embed it verbatim.
            let diags = Json::parse(&report.render_json())
                .unwrap_or_else(|_| Json::Str(report.render_human()));
            Json::Obj(vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str("lint".into())),
                ("message".into(), Json::Str(e.to_string())),
                ("diagnostics".into(), diags),
            ])
        }
        SubmitError::QueueFull {
            retry_after_s,
            capacity,
            queued,
        } => obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("queue_full".into())),
            ("message", Json::Str(e.to_string())),
            ("retry_after_s", Json::Num(*retry_after_s)),
            ("capacity", Json::Num(*capacity as f64)),
            ("queued", Json::Num(*queued as f64)),
        ]),
        SubmitError::Infeasible { names } => obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("infeasible".into())),
            ("message", Json::Str(e.to_string())),
            (
                "jobs",
                Json::Arr(names.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ]),
        SubmitError::ShuttingDown => obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("shutting_down".into())),
            ("message", Json::Str(e.to_string())),
        ]),
        SubmitError::JournalFailed(failed) => journal_failed_json(failed),
    }
}

/// The reply to a committing op once the journal has failed.
fn journal_failed_json(failed: &JournalFailed) -> Json {
    error("journal_failed", &failed.to_string())
}

/// `reply`, unless the journal has failed — by the end of this op's
/// commit at the latest — in which case the op answers `journal_failed`.
fn committed(service: &Service, reply: Json) -> Json {
    match service.journal_failure() {
        Some(failed) => journal_failed_json(&failed),
        None => reply,
    }
}

fn device_str(d: Device) -> &'static str {
    match d {
        Device::Cpu => "cpu",
        Device::Gpu => "gpu",
    }
}

/// The `state` string of a job: `queued`, `running`, `done`,
/// `dead-letter` or `rejected`.
fn state_str(state: &JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Rejected => "rejected",
        JobState::Running { .. } => "running",
        JobState::Done { .. } => "done",
        JobState::DeadLetter { .. } => "dead-letter",
    }
}

fn status_json(status: &JobStatus) -> Json {
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Num(status.id as f64)),
        ("name", Json::Str(status.name.clone())),
        ("dispatches", Json::Num(status.dispatches as f64)),
        ("retries", Json::Num(status.retries as f64)),
        ("state", Json::Str(state_str(&status.state).into())),
    ];
    match &status.state {
        JobState::Queued | JobState::Rejected => {}
        JobState::Running {
            machine,
            device,
            start_s,
            predicted_s,
        } => {
            fields.push(("machine", Json::Num(*machine as f64)));
            fields.push(("device", Json::Str(device_str(*device).into())));
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
            fields.push(("machine", Json::Num(*machine as f64)));
            fields.push(("device", Json::Str(device_str(*device).into())));
            fields.push(("start_s", Json::Num(*start_s)));
            fields.push(("end_s", Json::Num(*end_s)));
            fields.push(("predicted_s", Json::Num(*predicted_s)));
            fields.push(("simulated_s", Json::Num(*end_s - *start_s)));
        }
        JobState::DeadLetter { reason } => {
            fields.push(("reason", Json::Str(reason.clone())));
        }
    }
    obj(fields)
}

fn point_json(p: &crate::ring::MetricsPoint) -> Json {
    obj(vec![
        ("seq", Json::Num(p.seq as f64)),
        ("wall_s", Json::Num(p.wall_s)),
        ("sim_s", Json::Num(p.sim_s)),
        ("queue_depth", Json::Num(p.queue_depth as f64)),
        ("headroom_w", Json::Num(p.headroom_w)),
        ("completed", Json::Num(p.completed as f64)),
        ("dead_lettered", Json::Num(p.dead_lettered as f64)),
        (
            "util",
            Json::Arr(p.util.iter().map(|&u| Json::Num(u)).collect()),
        ),
    ])
}

fn metrics_json(m: &MetricsSnapshot) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("queue_depth", Json::Num(m.queue_depth as f64)),
        ("queue_capacity", Json::Num(m.queue_capacity as f64)),
        ("submitted", Json::Num(m.submitted as f64)),
        ("classes", Json::Num(m.classes as f64)),
        ("rejected", Json::Num(m.rejected as f64)),
        ("dispatched", Json::Num(m.dispatched as f64)),
        ("completed", Json::Num(m.completed as f64)),
        ("machines", Json::Num(m.machines as f64)),
        ("workers_alive", Json::Num(m.workers_alive as f64)),
        (
            "sim_now_s",
            Json::Arr(m.sim_now_s.iter().map(|&t| Json::Num(t)).collect()),
        ),
        (
            "util",
            Json::Arr(
                m.util
                    .iter()
                    .map(|u| {
                        obj(vec![
                            ("cpu", Json::Num(u[Device::Cpu.index()])),
                            ("gpu", Json::Num(u[Device::Gpu.index()])),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("predicted_makespan_s", Json::Num(m.predicted_makespan_s)),
        ("simulated_makespan_s", Json::Num(m.simulated_makespan_s)),
        ("cap_w", Json::Num(m.cap_w)),
        ("cap_violations", Json::Num(m.cap_violations as f64)),
        ("cap_samples", Json::Num(m.cap_samples as f64)),
        (
            "worker_error",
            match &m.worker_error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
        ("requeued", Json::Num(m.requeued as f64)),
        ("dead_lettered", Json::Num(m.dead_lettered as f64)),
        ("evictions", Json::Num(m.evictions as f64)),
        (
            "machines_down",
            Json::Arr(m.machines_down.iter().map(|&d| Json::Bool(d)).collect()),
        ),
        ("lost_work_s", Json::Num(m.lost_work_s)),
        ("frames_rejected", Json::Num(m.frames_rejected as f64)),
        ("journal_records", Json::Num(m.journal_records as f64)),
        ("journal_commits", Json::Num(m.journal_commits as f64)),
    ])
}

pub(crate) fn error(code: &str, message: &str) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(code.into())),
        ("message", Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use apu_sim::MachineConfig;

    fn service() -> Service {
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.queue_capacity = 4;
        Service::start(cfg)
    }

    fn call(svc: &Service, line: &str) -> Json {
        Json::parse(&handle_request(svc, line)).expect("response must be valid JSON")
    }

    #[test]
    fn ping_and_bad_requests() {
        let svc = service();
        let r = call(&svc, r#"{"op":"ping"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            r.get("proto").and_then(Json::as_index),
            Some(PROTOCOL_VERSION as usize)
        );

        let r = call(&svc, "not json");
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
        let r = call(&svc, r#"{"no_op":1}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
        let r = call(&svc, r#"{"op":"frobnicate"}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("unknown_op"));
        svc.shutdown();
    }

    #[test]
    fn submit_status_metrics_roundtrip() {
        let svc = service();
        let r = call(&svc, r#"{"op":"submit","spec":"lud x0.1"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let ids = r.get("ids").and_then(Json::as_arr).unwrap();
        assert_eq!(ids.len(), 1);
        let id = ids[0].as_index().unwrap();

        svc.wait_job(id);
        let r = call(&svc, &format!(r#"{{"op":"status","id":{id}}}"#));
        assert_eq!(r.get("state").and_then(Json::as_str), Some("done"));
        assert!(r.get("simulated_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(r.get("predicted_s").and_then(Json::as_f64).unwrap() > 0.0);

        let m = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(m.get("completed").and_then(Json::as_index), Some(1));
        assert_eq!(m.get("queue_depth").and_then(Json::as_index), Some(0));
        assert!(m.get("util").and_then(Json::as_arr).is_some());

        let r = call(&svc, r#"{"op":"status","id":999}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("unknown_job"));
        svc.shutdown();
    }

    #[test]
    fn lint_and_backpressure_over_the_protocol() {
        let svc = service();
        let r = call(&svc, r#"{"op":"submit","spec":"who_dis x1"}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("lint"));
        assert!(r.get("diagnostics").is_some());

        // Queue capacity is 4; a 6-wide batch must bounce atomically.
        let r = call(
            &svc,
            r#"{"op":"batch","specs":["lud x0.1 *3","srad x0.1 *3"]}"#,
        );
        assert_eq!(r.get("error").and_then(Json::as_str), Some("queue_full"));
        assert!(r.get("retry_after_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(r.get("capacity").and_then(Json::as_index), Some(4));

        let m = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(m.get("submitted").and_then(Json::as_index), Some(0));
        assert_eq!(m.get("classes").and_then(Json::as_index), Some(0));
        assert_eq!(m.get("rejected").and_then(Json::as_index), Some(6));
        svc.shutdown();
    }

    #[test]
    fn diagnostics_and_fault_metrics_over_the_protocol() {
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        cfg.fault_plan = Some(apu_sim::FaultPlan::parse("@chaos seed=3 job-fail=1\n").unwrap());
        cfg.retry = corun_core::RetryPolicy {
            max_retries: 1,
            backoff_base_s: 0.01,
            backoff_max_s: 0.02,
        };
        let svc = Service::start(cfg);
        let r = call(&svc, r#"{"op":"submit","spec":"lud x0.1"}"#);
        let id = r.get("ids").and_then(Json::as_arr).unwrap()[0]
            .as_index()
            .unwrap();
        svc.wait_job(id);
        let r = call(&svc, &format!(r#"{{"op":"status","id":{id}}}"#));
        assert_eq!(r.get("state").and_then(Json::as_str), Some("dead-letter"));
        assert!(r.get("reason").and_then(Json::as_str).is_some());
        assert_eq!(r.get("retries").and_then(Json::as_index), Some(1));

        let m = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(m.get("dead_lettered").and_then(Json::as_index), Some(1));
        assert_eq!(m.get("requeued").and_then(Json::as_index), Some(1));
        assert!(m.get("lost_work_s").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(m.get("machines_down").and_then(Json::as_arr).is_some());

        let d = call(&svc, r#"{"op":"diagnostics"}"#);
        assert_eq!(d.get("ok"), Some(&Json::Bool(true)));
        assert!(d.get("count").and_then(Json::as_index).unwrap() >= 2);
        let diags = d.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(!diags.is_empty());
        svc.shutdown();
    }

    #[test]
    fn set_cap_over_the_protocol() {
        let svc = service();
        let r = call(&svc, r#"{"op":"set_cap","cap_w":22.5}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let m = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(m.get("cap_w").and_then(Json::as_f64), Some(22.5));

        let r = call(&svc, r#"{"op":"set_cap"}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
        let r = call(&svc, r#"{"op":"set_cap","cap_w":-3}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
        svc.shutdown();
    }

    #[test]
    fn watch_streams_ring_points_with_a_cursor() {
        let svc = service();
        let r = call(&svc, r#"{"op":"submit","spec":"lud x0.1"}"#);
        let id = r.get("ids").and_then(Json::as_arr).unwrap()[0]
            .as_index()
            .unwrap();
        svc.wait_job(id);

        let w = call(&svc, r#"{"op":"watch"}"#);
        assert_eq!(w.get("ok"), Some(&Json::Bool(true)));
        let points = w.get("points").and_then(Json::as_arr).unwrap();
        assert!(!points.is_empty(), "harvests must have pushed points");
        let next = w.get("next").and_then(Json::as_index).unwrap();
        assert_eq!(
            points.last().unwrap().get("seq").and_then(Json::as_index),
            Some(next)
        );
        let p = &points[0];
        assert!(p.get("queue_depth").and_then(Json::as_index).is_some());
        assert!(p.get("headroom_w").and_then(Json::as_f64).is_some());
        assert!(p.get("util").and_then(Json::as_arr).is_some());

        // Resuming from the returned cursor yields nothing new.
        let w2 = call(&svc, &format!(r#"{{"op":"watch","since":{next}}}"#));
        assert!(w2.get("points").and_then(Json::as_arr).unwrap().is_empty());

        let r = call(&svc, r#"{"op":"watch","since":"x"}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
        svc.shutdown();
    }

    #[test]
    fn keyed_batch_answers_per_item_under_one_commit() {
        let path = std::env::temp_dir().join(format!(
            "corun-protocol-keyed-batch-{}.jsonl",
            std::process::id()
        ));
        let machine = MachineConfig::ivy_bridge();
        let mut cfg = ServiceConfig::fast(&machine);
        cfg.characterization.grid_points = 3;
        cfg.characterization.micro_duration_s = 1.0;
        // One fresh item fills the queue for the rest of the batch.
        cfg.queue_capacity = 1;
        cfg.journal_path = Some(path.clone());
        let svc = Service::start(cfg);
        let r = call(&svc, r#"{"op":"submit","spec":"lud x0.1","key":"k0"}"#);
        let k0 = r.get("ids").and_then(Json::as_arr).unwrap()[0]
            .as_index()
            .unwrap();
        svc.wait_job(k0);

        let commits = svc.metrics().journal_commits;
        let r = call(
            &svc,
            r#"{"op":"submit","items":[
                {"key":"k1","spec":"srad x0.1"},
                {"key":"k0","spec":"lud x0.1"},
                {"key":"k2","spec":"who_dis x1"},
                {"key":"k3","spec":"hotspot x0.1"},
                {"key":"k4","spec":"srad x0.1"}]}"#,
        );
        assert_eq!(svc.metrics().journal_commits, commits + 1, "one commit");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let results = r.get("results").and_then(Json::as_arr).unwrap();
        let ids = |i: usize| -> Vec<usize> {
            results[i]
                .get("ids")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(Json::as_index)
                .collect()
        };
        let code = |i: usize| results[i].get("error").and_then(Json::as_str);
        assert_eq!(results.len(), 5);
        assert_eq!(ids(0), vec![k0 + 1], "fresh item admitted");
        assert_eq!(ids(1), vec![k0], "dedup hit answers with the old id");
        assert_eq!(code(2), Some("lint"));
        assert!(results[2].get("diagnostics").is_some());
        assert_eq!(code(3), Some("queue_full"));
        assert_eq!(code(4), Some("queue_full"));
        assert!(results[3].get("retry_after_s").is_some());

        // Multi-id status: one phase per id, `unknown` for ids never
        // admitted.
        let r = call(&svc, &format!(r#"{{"op":"status","ids":[{k0},999]}}"#));
        let phases = r.get("phases").and_then(Json::as_arr).unwrap();
        assert_eq!(phases[0].as_str(), Some("done"));
        assert_eq!(phases[1].as_str(), Some("unknown"));

        for bad in [
            r#"{"op":"submit","items":{"key":"k9"}}"#,
            r#"{"op":"submit","items":[{"key":"k9"}]}"#,
            r#"{"op":"status","ids":[1,"x"]}"#,
        ] {
            let r = call(&svc, bad);
            assert_eq!(
                r.get("error").and_then(Json::as_str),
                Some("bad_request"),
                "{bad}"
            );
        }
        assert_eq!(svc.job_count(), 2, "malformed batches admit nothing");
        svc.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_equals_the_metrics_counters_in_the_same_state() {
        const KEYS: [&str; 5] = [
            "queue_depth",
            "submitted",
            "completed",
            "dead_lettered",
            "workers_alive",
        ];
        let counters = |j: &Json| -> Vec<usize> {
            KEYS.iter()
                .map(|k| j.get(k).and_then(Json::as_index).expect(k))
                .collect()
        };
        let svc = service();
        let batch = r#"{"op":"submit","items":[
            {"key":"a","spec":"lud x0.1"},{"key":"b","spec":"srad x0.1"}]}"#;
        let r = call(&svc, batch);
        let load = r.get("load").expect("a keyed batch reply carries load");
        // Workers cannot move the admitted count; it is the batch's own.
        assert_eq!(load.get("submitted").and_then(Json::as_index), Some(2));

        svc.wait_idle();
        let m = call(&svc, r#"{"op":"metrics"}"#);
        assert_eq!(counters(&m)[2], 2, "both jobs completed");
        // A multi-id status and an all-dedup batch leave the state as the
        // metrics poll saw it.
        let st = call(&svc, r#"{"op":"status","ids":[0,1]}"#);
        assert_eq!(counters(st.get("load").expect("status load")), counters(&m));
        let again = call(&svc, batch);
        assert_eq!(counters(again.get("load").expect("load")), counters(&m));
        assert_eq!(svc.job_count(), 2, "dedup hits admit nothing");
        svc.shutdown();
    }

    #[test]
    fn shutdown_over_the_protocol() {
        let svc = service();
        let r = call(&svc, r#"{"op":"shutdown"}"#);
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let r = call(&svc, r#"{"op":"submit","spec":"lud x0.1"}"#);
        assert_eq!(r.get("error").and_then(Json::as_str), Some("shutting_down"));
        svc.shutdown();
    }
}
