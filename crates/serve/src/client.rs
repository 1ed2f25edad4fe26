//! A small blocking client for the service protocol.
//!
//! Used by the `corun submit` / `corun status` / `corun shutdown` CLI
//! subcommands and by the CI smoke test. One request per call; responses
//! are returned as parsed [`Json`] values, with protocol-level errors
//! (`"ok": false`) surfaced as `Err(String)` carrying the server message.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client-side retry behaviour for `queue_full` backpressure: capped
/// exponential back-off with deterministic jitter, honoring the server's
/// `retry_after_s` hint as a floor.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Total submit attempts (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Back-off base, seconds; attempt `k` waits about `base * 2^k`.
    pub base_s: f64,
    /// Upper bound on any single wait, seconds.
    pub max_s: f64,
    /// Jitter seed, so concurrent clients desynchronize deterministically.
    pub seed: u64,
    /// Upper bound on *total* wall-clock spent retrying, seconds. A
    /// wedged server that keeps answering `queue_full` can otherwise hold
    /// a caller for `max_attempts * max_s` — far too long for a fleet
    /// coordinator mid-placement-round. Once the budget is spent the next
    /// `queue_full` returns as an error (and a pending back-off sleep is
    /// truncated to the budget's remainder).
    pub max_total_s: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 8,
            base_s: 0.05,
            max_s: 2.0,
            seed: 0x5eed,
            max_total_s: 10.0,
        }
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (`host:port`).
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // The protocol is strict request/response with tiny lines; Nagle
        // + delayed ACK turns every call into a ~40 ms stall without
        // this (a fleet coordinator makes thousands of calls per drain).
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| format!("cannot clone stream: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Send one request object and read one response line.
    ///
    /// Returns the raw response (even when `"ok"` is false) so callers can
    /// inspect structured error payloads like `retry_after_s`.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        let line = request.render();
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Json::parse(response.trim()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Like [`Client::call`], but turns `"ok": false` into `Err` with the
    /// server's message.
    pub fn call_ok(&mut self, request: &Json) -> Result<Json, String> {
        let response = self.call(request)?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response)
        } else {
            let code = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            let msg = response
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("no message");
            Err(format!("{code}: {msg}"))
        }
    }

    /// Health check; true if the server answers the ping.
    pub fn ping(&mut self) -> Result<bool, String> {
        let r = self.call(&crate::json::obj(vec![("op", Json::Str("ping".into()))]))?;
        Ok(r.get("ok").and_then(Json::as_bool) == Some(true))
    }

    /// Submit a spec fragment; returns the assigned job ids.
    pub fn submit(&mut self, spec: &str) -> Result<Vec<usize>, String> {
        let r = self.call_ok(&crate::json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("spec", Json::Str(spec.into())),
        ]))?;
        let ids = r
            .get("ids")
            .and_then(Json::as_arr)
            .ok_or("response missing `ids`")?;
        ids.iter()
            .map(|v| v.as_index().ok_or_else(|| "non-integer job id".into()))
            .collect()
    }

    /// Like [`Client::submit`], but retries `queue_full` rejections with
    /// capped exponential back-off and jitter, never waiting less than
    /// the server's `retry_after_s` hint. Any other failure returns
    /// immediately. Gives up when either the attempt budget
    /// (`max_attempts`) or the wall-clock budget (`max_total_s`) runs
    /// out, whichever comes first.
    pub fn submit_with_retry(
        &mut self,
        spec: &str,
        retry: &RetryConfig,
    ) -> Result<Vec<usize>, String> {
        // corun-lint: allow(wall-clock) — client-side retry deadline, an I/O edge.
        let deadline = Instant::now() + Duration::from_secs_f64(retry.max_total_s.max(0.0));
        // One jitter stream per submission, drawn once per back-off:
        // equal seeds replay the exact retry schedule under `corun
        // replay`, while different seeds desynchronize concurrent
        // clients hammering the same full queue.
        let mut jitter_rng = corun_core::DetRng::new(retry.seed);
        let mut attempt = 0u32;
        loop {
            let r = self.call(&crate::json::obj(vec![
                ("op", Json::Str("submit".into())),
                ("spec", Json::Str(spec.into())),
            ]))?;
            if r.get("ok").and_then(Json::as_bool) == Some(true) {
                let ids = r
                    .get("ids")
                    .and_then(Json::as_arr)
                    .ok_or("response missing `ids`")?;
                return ids
                    .iter()
                    .map(|v| v.as_index().ok_or_else(|| "non-integer job id".into()))
                    .collect();
            }
            let code = r
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            attempt += 1;
            // corun-lint: allow(wall-clock) — client-side retry pacing, an I/O edge.
            let now = Instant::now();
            if code != "queue_full" || attempt >= retry.max_attempts.max(1) || now >= deadline {
                let msg = r
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("no message");
                let spent = if code == "queue_full" && now >= deadline {
                    format!(" (retry budget of {:.1}s exhausted)", retry.max_total_s)
                } else {
                    String::new()
                };
                return Err(format!("{code}: {msg}{spent}"));
            }
            let hint = r
                .get("retry_after_s")
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
                .max(0.0);
            let delay = corun_core::jittered_backoff_s(
                retry.base_s.max(0.0),
                attempt,
                hint,
                jitter_rng.next_unit(),
                retry.max_s.max(0.0),
            );
            // Never sleep past the wall-clock budget: truncate the last
            // back-off so the final attempt happens at the deadline, not
            // a full back-off beyond it.
            let delay = delay.min((deadline - now).as_secs_f64());
            std::thread::sleep(Duration::from_secs_f64(delay));
        }
    }

    /// Query one job's status.
    pub fn status(&mut self, id: usize) -> Result<Json, String> {
        self.call_ok(&crate::json::obj(vec![
            ("op", Json::Str("status".into())),
            ("id", Json::Num(id as f64)),
        ]))
    }

    /// Push a new power cap to the running service (fleet budget
    /// rebalancing).
    pub fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        self.call_ok(&crate::json::obj(vec![
            ("op", Json::Str("set_cap".into())),
            ("cap_w", Json::Num(cap_w)),
        ]))
        .map(|_| ())
    }

    /// Fetch the live metrics snapshot.
    pub fn metrics(&mut self) -> Result<Json, String> {
        self.call_ok(&crate::json::obj(vec![("op", Json::Str("metrics".into()))]))
    }

    /// Stream metrics-ring points recorded after cursor `since` (`0`
    /// starts from the oldest retained point). The response carries
    /// `points` plus `next`, the cursor to resume from.
    pub fn watch(&mut self, since: u64) -> Result<Json, String> {
        self.call_ok(&crate::json::obj(vec![
            ("op", Json::Str("watch".into())),
            ("since", Json::Num(since as f64)),
        ]))
    }

    /// Fetch the accumulated `SRV0xx` fault/journal diagnostics.
    pub fn diagnostics(&mut self) -> Result<Json, String> {
        self.call_ok(&crate::json::obj(vec![(
            "op",
            Json::Str("diagnostics".into()),
        )]))
    }

    /// Request a graceful shutdown (drain queue, then exit).
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call_ok(&crate::json::obj(vec![(
            "op",
            Json::Str("shutdown".into()),
        )]))
        .map(|_| ())
    }

    /// Poll `status` until the job reaches a terminal state or `timeout_s`
    /// wall-clock seconds elapse. Returns the final status object.
    pub fn wait_done(&mut self, id: usize, timeout_s: f64) -> Result<Json, String> {
        // corun-lint: allow(wall-clock) — client-side poll deadline, an I/O edge.
        let deadline = Instant::now() + Duration::from_secs_f64(timeout_s);
        loop {
            let status = self.status(id)?;
            if let Some("done" | "rejected" | "dead-letter") =
                status.get("state").and_then(Json::as_str)
            {
                return Ok(status);
            }
            // corun-lint: allow(wall-clock) — client-side poll deadline, an I/O edge.
            if Instant::now() >= deadline {
                return Err(format!("job {id} did not finish within {timeout_s}s"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
