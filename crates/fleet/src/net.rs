//! Partition-tolerant coordinator↔shard RPC with deterministic network
//! fault injection.
//!
//! The fleet's original `RemoteShard` assumed a perfect network: blocking
//! calls with no socket deadlines, so one stalled daemon could hang
//! `Fleet::pump` forever, and a reply that raced a reconnect could be
//! paired with the wrong request. This module rebuilds the transport in
//! layers:
//!
//! * [`RawTransport`] — one request line in, one response line out.
//!   [`TcpRaw`] drives a real daemon with connect/read/write timeouts;
//!   [`LocalRaw`] drives an in-process [`Service`] through the same
//!   string protocol, so every fault below applies identically in tests.
//! * [`FaultyRaw`] — a seeded-deterministic fault layer ([`NetFaultPlan`],
//!   parsed from `@netchaos` directives): dropped requests, dropped
//!   replies, delays, duplicated (stale) replies, mid-frame truncation,
//!   and one-way or symmetric partitions over per-shard operation
//!   windows.
//! * [`RpcShard`] — the [`ShardBackend`] everyone uses. Every call gets
//!   a sequence number, a per-op deadline on the injected [`Clock`], and
//!   bounded reconnect-with-backoff jittered by a [`DetRng`]; replies
//!   are rejected unless they echo the request's `seq` (stale/duplicated
//!   replies on a desynchronized connection) and carry a non-regressing
//!   fencing identity (`epoch`, `boot` — see [`Service::epoch`]). A
//!   submission whose reply is lost *after* the request may have landed,
//!   so it is reported [`SubmitOutcome::Indeterminate`], never `Down`:
//!   the coordinator resolves it by re-submitting the same idempotent
//!   key to the same shard, which makes double dispatch across a
//!   partition heal impossible by construction.

use crate::shard::{DataOp, DataReply, JobPhase, ShardBackend, ShardMetrics, SubmitOutcome};
use corun_core::{jittered_backoff_s, Clock, DetRng, WallClock};
use corun_serve::json::obj;
use corun_serve::{handle_request, Json, LoadSnapshot, Service, PROTOCOL_VERSION};
use corun_verify::{Code, Diagnostic, Report};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A transport-level failure, classified by what the coordinator may
/// safely assume about delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// Could not even connect or send: the request was certainly never
    /// delivered, so aborting the attempt is safe.
    Unreachable(String),
    /// The deadline passed after the request was (possibly) sent; the
    /// shard may or may not have processed it.
    Timeout(String),
    /// The connection broke after the request was (possibly) sent.
    Disconnected(String),
    /// A reply arrived but did not parse, or echoed the wrong sequence
    /// number (a stale or duplicated frame on a desynchronized
    /// connection).
    Garbled(String),
    /// A reply carried a fencing epoch older than one already observed
    /// from the same incarnation — a split-brain stale shard.
    Fenced {
        /// The newest epoch seen from this shard.
        expected: u64,
        /// The stale epoch the reply carried.
        got: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Unreachable(e) => write!(f, "unreachable: {e}"),
            NetError::Timeout(e) => write!(f, "timeout: {e}"),
            NetError::Disconnected(e) => write!(f, "disconnected: {e}"),
            NetError::Garbled(e) => write!(f, "garbled reply: {e}"),
            NetError::Fenced { expected, got } => {
                write!(f, "fenced stale reply: epoch {got}, expected >= {expected}")
            }
        }
    }
}

impl NetError {
    /// True when the request was certainly never delivered, so the
    /// operation can be treated as not-attempted.
    pub fn certainly_undelivered(&self) -> bool {
        matches!(self, NetError::Unreachable(_))
    }
}

/// One line out, one line back: the only thing a transport must do.
/// Everything above (deadlines, retries, fencing) lives in [`RpcShard`];
/// everything below (sockets, injected faults) lives in implementations.
pub trait RawTransport: Send {
    /// Send one request line, read one response line.
    fn exchange(&mut self, line: &str) -> Result<String, NetError>;

    /// Drop any broken connection state and re-establish.
    fn reconnect(&mut self) -> Result<(), NetError>;

    /// Human-readable peer name for error messages.
    fn peer(&self) -> String;

    /// `"local"` or `"remote"`, surfaced through [`ShardBackend::kind`].
    fn kind(&self) -> &'static str;
}

/// A real TCP connection to a `corun serve` daemon, with connect, read,
/// and write timeouts so a hung daemon costs one timeout, never a hung
/// coordinator.
pub struct TcpRaw {
    addr: String,
    io_timeout: Duration,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl TcpRaw {
    /// Set up (without dialing) a transport for `addr` (`host:port`).
    pub fn new(addr: &str, io_timeout_s: f64) -> TcpRaw {
        TcpRaw {
            addr: addr.to_string(),
            io_timeout: Duration::from_secs_f64(io_timeout_s.max(0.001)),
            conn: None,
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl RawTransport for TcpRaw {
    fn exchange(&mut self, line: &str) -> Result<String, NetError> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let (reader, writer) = self.conn.as_mut().expect("connected above");
        let send = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Err(e) = send {
            self.conn = None;
            // A send that fails outright still may have pushed bytes
            // into the kernel; classify as disconnected, not unreachable.
            return Err(NetError::Disconnected(format!("send: {e}")));
        }
        let mut response = String::new();
        match reader.read_line(&mut response) {
            Ok(0) => {
                self.conn = None;
                Err(NetError::Disconnected(
                    "server closed the connection".into(),
                ))
            }
            Ok(_) => Ok(response),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // The reply may still be in flight; this connection is
                // now desynchronized (a late reply would pair with the
                // wrong request), so drop it.
                self.conn = None;
                Err(NetError::Timeout(format!(
                    "no reply within {:?}",
                    self.io_timeout
                )))
            }
            Err(e) => {
                self.conn = None;
                Err(NetError::Disconnected(format!("receive: {e}")))
            }
        }
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        self.conn = None;
        let addrs: Vec<_> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| NetError::Unreachable(format!("cannot resolve {}: {e}", self.addr)))?
            .collect();
        let mut last = NetError::Unreachable(format!("{} resolves to no address", self.addr));
        for sa in addrs {
            match TcpStream::connect_timeout(&sa, self.io_timeout) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(Some(self.io_timeout));
                    let _ = stream.set_write_timeout(Some(self.io_timeout));
                    let read_half = stream
                        .try_clone()
                        .map_err(|e| NetError::Unreachable(format!("cannot clone stream: {e}")))?;
                    self.conn = Some((BufReader::new(read_half), stream));
                    return Ok(());
                }
                Err(e) => last = NetError::Unreachable(format!("cannot connect to {sa}: {e}")),
            }
        }
        Err(last)
    }

    fn peer(&self) -> String {
        self.addr.clone()
    }

    fn kind(&self) -> &'static str {
        "remote"
    }
}

/// An in-process shard behind the same string protocol: requests go
/// through [`handle_request`] exactly as a daemon's would, so the fault
/// layer and the fencing checks exercise identical codepaths in tests.
pub struct LocalRaw {
    service: Arc<Service>,
}

impl LocalRaw {
    /// Wrap a running service.
    pub fn new(service: Arc<Service>) -> LocalRaw {
        LocalRaw { service }
    }

    /// The wrapped service (tests kill/recover it out of band).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }
}

impl RawTransport for LocalRaw {
    fn exchange(&mut self, line: &str) -> Result<String, NetError> {
        Ok(handle_request(&self.service, line))
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        Ok(())
    }

    fn peer(&self) -> String {
        "local".into()
    }

    fn kind(&self) -> &'static str {
        "local"
    }
}

/// One partition window over a shard's operation counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    /// Target shard index.
    pub shard: usize,
    /// First faulted operation (1-based, inclusive).
    pub from_op: u64,
    /// Last faulted operation (inclusive).
    pub to_op: u64,
    /// One-way: requests are delivered but every reply is lost (the
    /// nastiest case — the shard acts, the coordinator cannot tell).
    /// Symmetric partitions drop the request before delivery.
    pub one_way: bool,
}

/// A seeded, deterministic network fault plan, parsed from `@netchaos`
/// directives (see `docs/FAULTS.md`). All probabilities are per
/// operation; windows index each shard's own operation counter.
#[derive(Debug, Clone, PartialEq)]
pub struct NetFaultPlan {
    /// Base seed; each shard derives an independent stream from it.
    pub seed: u64,
    /// P(request silently dropped before delivery).
    pub drop_p: f64,
    /// P(reply dropped after the request took effect).
    pub drop_reply_p: f64,
    /// P(reply delayed by `delay_s` — exercises read timeouts).
    pub delay_p: f64,
    /// Injected delay, wall seconds.
    pub delay_s: f64,
    /// P(this reply is stashed and a previously stashed stale reply is
    /// delivered instead — duplicate/reorder, caught by the seq echo).
    pub dup_p: f64,
    /// P(reply truncated mid-frame at a seeded offset).
    pub truncate_p: f64,
    /// Partition windows.
    pub partitions: Vec<Partition>,
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan {
            seed: 1,
            drop_p: 0.0,
            drop_reply_p: 0.0,
            delay_p: 0.0,
            delay_s: 0.05,
            dup_p: 0.0,
            truncate_p: 0.0,
            partitions: Vec::new(),
        }
    }
}

impl NetFaultPlan {
    /// True when no fault can ever fire.
    pub fn is_noop(&self) -> bool {
        self.drop_p <= 0.0
            && self.drop_reply_p <= 0.0
            && self.delay_p <= 0.0
            && self.dup_p <= 0.0
            && self.truncate_p <= 0.0
            && self.partitions.is_empty()
    }

    /// Parse every `@netchaos` line in `text` into one accumulated plan
    /// (`None` when no directive is present). Grammar, space-separated
    /// `key=value` tokens:
    ///
    /// ```text
    /// @netchaos seed=7 drop=0.1 drop-reply=0.05 dup=0.1 truncate=0.05
    /// @netchaos delay=0.2 delay-s=0.01
    /// @netchaos partition=1:10..40 oneway=2:5..25
    /// ```
    pub fn parse(text: &str) -> Result<Option<NetFaultPlan>, String> {
        let mut plan = NetFaultPlan::default();
        let mut seen = false;
        for line in text.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("@netchaos") else {
                continue;
            };
            seen = true;
            for tok in rest.split_whitespace() {
                plan.apply_token(tok)?;
            }
        }
        Ok(seen.then_some(plan))
    }

    fn apply_token(&mut self, tok: &str) -> Result<(), String> {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("`{tok}`: expected key=value"))?;
        let prob = |v: &str| -> Result<f64, String> {
            let p: f64 = v
                .parse()
                .map_err(|_| format!("`{tok}`: `{v}` is not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("`{tok}`: probability must be in [0, 1]"));
            }
            Ok(p)
        };
        match key {
            "seed" => {
                self.seed = value
                    .parse()
                    .map_err(|_| format!("`{tok}`: `{value}` is not an integer seed"))?;
            }
            "drop" => self.drop_p = prob(value)?,
            "drop-reply" => self.drop_reply_p = prob(value)?,
            "delay" => self.delay_p = prob(value)?,
            "delay-s" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("`{tok}`: `{value}` is not a number"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("`{tok}`: delay must be finite and non-negative"));
                }
                self.delay_s = s;
            }
            "dup" => self.dup_p = prob(value)?,
            "truncate" => self.truncate_p = prob(value)?,
            "partition" | "oneway" => {
                let (shard, window) = value
                    .split_once(':')
                    .ok_or_else(|| format!("`{tok}`: expected SHARD:FROM..TO"))?;
                let shard: usize = shard
                    .parse()
                    .map_err(|_| format!("`{tok}`: `{shard}` is not a shard index"))?;
                let (from, to) = window
                    .split_once("..")
                    .ok_or_else(|| format!("`{tok}`: expected SHARD:FROM..TO"))?;
                let from_op: u64 = from
                    .parse()
                    .map_err(|_| format!("`{tok}`: `{from}` is not an op index"))?;
                let to_op: u64 = to
                    .parse()
                    .map_err(|_| format!("`{tok}`: `{to}` is not an op index"))?;
                if to_op < from_op {
                    return Err(format!("`{tok}`: window is empty (to < from)"));
                }
                self.partitions.push(Partition {
                    shard,
                    from_op,
                    to_op,
                    one_way: key == "oneway",
                });
            }
            other => return Err(format!("`{tok}`: unknown netchaos key `{other}`")),
        }
        Ok(())
    }

    /// Is `op` (1-based) inside a partition window for `shard`?
    /// `reply_side` selects one-way windows (reply lost after delivery)
    /// versus symmetric ones (request lost before delivery).
    fn partitioned(&self, shard: usize, op: u64, reply_side: bool) -> bool {
        self.partitions.iter().any(|p| {
            p.shard == shard && p.one_way == reply_side && (p.from_op..=p.to_op).contains(&op)
        })
    }
}

/// Lint + parse `@netchaos` directives: grammar errors become `FLT005`
/// diagnostics located at `netchaos:<line>` instead of a hard failure.
pub fn lint_netchaos(text: &str) -> (Option<NetFaultPlan>, Report) {
    let mut report = Report::new();
    for (i, line) in text.lines().enumerate() {
        if !line.trim().starts_with("@netchaos") {
            continue;
        }
        if let Err(e) = NetFaultPlan::parse(line) {
            report.push(Diagnostic::new(
                Code::Flt005,
                format!("netchaos:{}", i + 1),
                e,
            ));
        }
    }
    let plan = if report.has_errors() {
        None
    } else {
        NetFaultPlan::parse(text).ok().flatten()
    };
    (plan, report)
}

/// The deterministic fault layer: wraps any [`RawTransport`] and applies
/// a [`NetFaultPlan`] with a per-shard seeded stream. Faults fire on the
/// wrapped shard's own operation counter, so a plan replays identically
/// regardless of what the rest of the fleet does.
pub struct FaultyRaw<T: RawTransport> {
    inner: T,
    plan: NetFaultPlan,
    rng: DetRng,
    shard: usize,
    op: u64,
    /// The reply a `dup` fault stashed, delivered (stale) on the next
    /// dup hit — modeling duplicated/reordered frames.
    stale: Option<String>,
}

impl<T: RawTransport> FaultyRaw<T> {
    /// Wrap `inner` for shard index `shard` under `plan`.
    pub fn new(inner: T, plan: NetFaultPlan, shard: usize) -> FaultyRaw<T> {
        // Independent child stream per shard: the splitmix sequence is a
        // pure function of (plan seed, shard).
        let mut parent = DetRng::new(plan.seed ^ 0x6e65_7463_6861_6f73); // "netchaos"
        let mut rng = parent.split();
        for _ in 0..shard {
            rng = parent.split();
        }
        FaultyRaw {
            inner,
            plan,
            rng,
            shard,
            op: 0,
            stale: None,
        }
    }

    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.next_unit() < p
    }
}

impl<T: RawTransport> RawTransport for FaultyRaw<T> {
    fn exchange(&mut self, line: &str) -> Result<String, NetError> {
        self.op += 1;
        let op = self.op;
        // Request-side faults: the shard never sees the line.
        if self.plan.partitioned(self.shard, op, false) {
            return Err(NetError::Timeout(format!("partitioned (op {op})")));
        }
        if self.roll(self.plan.drop_p) {
            return Err(NetError::Timeout(format!("request dropped (op {op})")));
        }
        if self.roll(self.plan.delay_p) && self.plan.delay_s > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(self.plan.delay_s));
        }
        let reply = self.inner.exchange(line)?;
        // Reply-side faults: the request took effect, the answer is lost
        // or mangled — the indeterminate cases fencing must survive.
        if self.plan.partitioned(self.shard, op, true) || self.roll(self.plan.drop_reply_p) {
            return Err(NetError::Timeout(format!("reply dropped (op {op})")));
        }
        let reply = if self.roll(self.plan.dup_p) {
            match self.stale.replace(reply.clone()) {
                Some(old) => old, // deliver the stale frame instead
                None => reply,
            }
        } else {
            reply
        };
        if self.roll(self.plan.truncate_p) && !reply.is_empty() {
            let mut cut = (self.rng.next_unit() * reply.len() as f64) as usize;
            while cut > 0 && !reply.is_char_boundary(cut) {
                cut -= 1;
            }
            return Ok(reply[..cut].to_string());
        }
        Ok(reply)
    }

    fn reconnect(&mut self) -> Result<(), NetError> {
        // A fresh connection cannot deliver frames from the old one.
        self.stale = None;
        self.inner.reconnect()
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Deadline/retry/backoff policy for one shard's RPC channel.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Per-operation deadline, seconds on the injected clock, across all
    /// attempts.
    pub op_timeout_s: f64,
    /// Socket connect/read/write timeout, seconds ([`TcpRaw`] only).
    pub io_timeout_s: f64,
    /// Max exchange attempts per operation (1 = no retry).
    pub attempts: u32,
    /// Backoff base, seconds; attempt `k` waits about `base * 2^k`.
    pub backoff_base_s: f64,
    /// Upper bound on one backoff sleep, seconds.
    pub backoff_max_s: f64,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            op_timeout_s: 5.0,
            io_timeout_s: 2.0,
            attempts: 3,
            backoff_base_s: 0.01,
            backoff_max_s: 0.25,
            seed: 0xc0de,
        }
    }
}

/// Rolled-up RPC health counters for one shard, surfaced in
/// `corun fleet status` and the coordinator's progress stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RpcSnapshot {
    /// Operations attempted.
    pub ops: u64,
    /// Extra attempts beyond the first.
    pub retries: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Replies rejected for a regressed fencing epoch.
    pub fenced: u64,
    /// Replies rejected for a wrong sequence echo or parse failure.
    pub desyncs: u64,
    /// Retry backoffs the link waited out.
    pub backoffs: u64,
    /// Seconds on the link's clock spent waiting in those backoffs.
    pub backoff_s: f64,
    /// Median successful-op latency, milliseconds (over a ring of the
    /// last 256 ops).
    pub p50_ms: f64,
    /// 99th-percentile successful-op latency, milliseconds.
    pub p99_ms: f64,
}

/// Internal latency ring + counters behind [`RpcSnapshot`].
#[derive(Debug, Default)]
struct RpcStats {
    ops: u64,
    retries: u64,
    timeouts: u64,
    reconnects: u64,
    fenced: u64,
    desyncs: u64,
    backoffs: u64,
    backoff_s: f64,
    latencies_s: Vec<f64>,
    next: usize,
}

const LATENCY_RING: usize = 256;

impl RpcStats {
    fn record_latency(&mut self, dt_s: f64) {
        if !dt_s.is_finite() || dt_s < 0.0 {
            return;
        }
        if self.latencies_s.len() < LATENCY_RING {
            self.latencies_s.push(dt_s);
        } else {
            self.latencies_s[self.next] = dt_s;
        }
        self.next = (self.next + 1) % LATENCY_RING;
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(f64::total_cmp);
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)] * 1e3
    }

    fn snapshot(&self) -> RpcSnapshot {
        RpcSnapshot {
            ops: self.ops,
            retries: self.retries,
            timeouts: self.timeouts,
            reconnects: self.reconnects,
            fenced: self.fenced,
            desyncs: self.desyncs,
            backoffs: self.backoffs,
            backoff_s: self.backoff_s,
            p50_ms: self.percentile_ms(0.50),
            p99_ms: self.percentile_ms(0.99),
        }
    }
}

/// A shard driven over any [`RawTransport`] with deadlines, bounded
/// retries, sequence-echo matching, and epoch/boot fencing. The
/// workhorse [`ShardBackend`]; [`RemoteShard`] is the TCP instantiation.
///
/// The link is idle, or it holds one data op whose RPC is backing off
/// until a time on the injected clock ([`ShardBackend::start_op`],
/// [`ShardBackend::poll_op`]). So a retry is a wake-up the caller polls
/// for, not a sleep on the caller's thread. The synchronous methods and
/// the control ops run the same steps and sleep out each backoff.
pub struct RpcShard<T: RawTransport> {
    raw: T,
    cfg: NetConfig,
    clock: Arc<dyn Clock>,
    rng: DetRng,
    seq: u64,
    /// Newest fencing identity observed from this shard (0 = none yet).
    boot: u64,
    epoch: u64,
    /// Set when a reply reveals a *different* incarnation (new boot or
    /// higher epoch) than previously observed; the coordinator drains it
    /// with [`ShardBackend::take_incarnation_change`] and re-resolves
    /// every in-flight job against the new incarnation's journal.
    incarnation_changed: bool,
    stats: RpcStats,
    /// The `load` of the last keyed-batch `submit` or multi-id `status`
    /// reply, until [`ShardBackend::take_load`] takes it or a call fails.
    load: Option<LoadSnapshot>,
    /// The data op the link holds while its RPC backs off.
    parked: Option<Parked>,
}

/// One RPC in progress: the stamped request and where its retries stand.
struct Op {
    seq: u64,
    line: String,
    /// Attempts made so far.
    attempt: u32,
    /// The op's deadline on the link's clock, across all attempts.
    deadline: f64,
    /// When the op began waiting out its current backoff.
    parked_at: Option<f64>,
    /// Once any attempt fails *after* the send, the op can no longer be
    /// reported as certainly-undelivered.
    maybe_delivered: bool,
    last: NetError,
}

/// Where one [`RpcShard::step`] left an [`Op`].
enum Step {
    Settled(Result<Json, NetError>),
    /// Retry once the link's clock reaches this time.
    RetryAt(f64),
}

impl<T: RawTransport> RpcShard<T> {
    /// Wrap `raw` under `cfg`, reading deadlines from `clock`.
    pub fn over(raw: T, cfg: NetConfig, clock: Arc<dyn Clock>) -> RpcShard<T> {
        RpcShard {
            raw,
            rng: DetRng::new(cfg.seed),
            cfg,
            clock,
            seq: 0,
            boot: 0,
            epoch: 0,
            incarnation_changed: false,
            stats: RpcStats::default(),
            load: None,
            parked: None,
        }
    }

    /// Stamp a new op. `fields` must not contain `seq`: it is stamped
    /// here and checked against the reply's echo.
    fn begin(&mut self, mut fields: Vec<(&str, Json)>) -> Op {
        self.seq += 1;
        let seq = self.seq;
        fields.push(("seq", Json::Num(seq as f64)));
        self.stats.ops += 1;
        Op {
            seq,
            line: obj(fields).render(),
            attempt: 0,
            deadline: self.clock.now_s() + self.cfg.op_timeout_s,
            parked_at: None,
            maybe_delivered: false,
            last: NetError::Timeout("op deadline exhausted".into()),
        }
    }

    /// One deadline-bounded, retried call that sleeps out its backoffs.
    fn call(&mut self, fields: Vec<(&str, Json)>) -> Result<Json, NetError> {
        debug_assert!(self.parked.is_none(), "a call on a link that holds an op");
        let mut op = self.begin(fields);
        loop {
            match self.step(&mut op) {
                Step::Settled(result) => return result,
                Step::RetryAt(t) => self.sleep_until(t),
            }
        }
    }

    /// The one retry body: attempt `op` until it settles or a retry has
    /// to wait, reconnecting before each retry and drawing its jittered
    /// backoff.
    fn step(&mut self, op: &mut Op) -> Step {
        if let Some(t) = op.parked_at.take() {
            self.stats.backoff_s += (self.clock.now_s() - t).max(0.0);
        }
        while self.clock.now_s() < op.deadline {
            let t0 = self.clock.now_s();
            match self.raw.exchange(&op.line) {
                Ok(reply) => match self.accept_reply(op.seq, &reply) {
                    Ok(json) => {
                        self.stats.record_latency(self.clock.now_s() - t0);
                        return Step::Settled(Ok(json));
                    }
                    Err(e) => {
                        op.maybe_delivered = true;
                        op.last = e;
                    }
                },
                Err(e) => {
                    if matches!(e, NetError::Timeout(_)) {
                        self.stats.timeouts += 1;
                    }
                    if !e.certainly_undelivered() {
                        op.maybe_delivered = true;
                    }
                    op.last = e;
                }
            }
            op.attempt += 1;
            if op.attempt >= self.cfg.attempts.max(1) {
                break;
            }
            self.stats.retries += 1;
            self.stats.reconnects += 1;
            let _ = self.raw.reconnect();
            let now = self.clock.now_s();
            let remaining = op.deadline - now;
            if remaining <= 0.0 {
                break;
            }
            let (base, max) = (self.cfg.backoff_base_s, self.cfg.backoff_max_s);
            let unit = self.rng.next_unit();
            let delay = jittered_backoff_s(base, op.attempt, 0.0, unit, max).min(remaining);
            if delay > 0.0 {
                self.stats.backoffs += 1;
                op.parked_at = Some(now);
                return Step::RetryAt(now + delay);
            }
        }
        // An older reply's load must not pass for a heartbeat after this.
        self.load = None;
        if op.maybe_delivered && op.last.certainly_undelivered() {
            // Do not let a final connect failure mask an earlier
            // possibly-delivered attempt.
            return Step::Settled(Err(NetError::Timeout(
                "retried after a possibly-delivered attempt".into(),
            )));
        }
        Step::Settled(Err(op.last.clone()))
    }

    /// Block until the link's clock reads `t`, at most one second: the
    /// blocking callers' backoff. Under a [`corun_core::ManualClock`]
    /// this sleeps the wait in real time and the clock stays put.
    fn sleep_until(&self, t: f64) {
        let wait = t - self.clock.now_s();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait.min(1.0)));
        }
    }

    /// Validate one reply: parse, sequence echo, fencing identity.
    fn accept_reply(&mut self, seq: u64, reply: &str) -> Result<Json, NetError> {
        let json = Json::parse(reply.trim()).map_err(|e| {
            self.stats.desyncs += 1;
            NetError::Garbled(format!("unparseable reply: {e}"))
        })?;
        if let Some(echo) = json.get("seq").and_then(Json::as_f64) {
            if echo as u64 != seq {
                self.stats.desyncs += 1;
                // The connection is delivering stale frames; a reconnect
                // flushes them.
                let _ = self.raw.reconnect();
                self.stats.reconnects += 1;
                return Err(NetError::Garbled(format!(
                    "stale reply: seq {} echoed for request {seq}",
                    echo as u64
                )));
            }
        }
        let boot = json.get("boot").and_then(Json::as_f64).map(|b| b as u64);
        let epoch = json.get("epoch").and_then(Json::as_f64).map(|e| e as u64);
        if let (Some(boot), Some(epoch)) = (boot, epoch) {
            if boot == self.boot && epoch < self.epoch {
                // Same process answering with an older epoch: a stale
                // split-brain frame. Never fold it into the books.
                self.stats.fenced += 1;
                return Err(NetError::Fenced {
                    expected: self.epoch,
                    got: epoch,
                });
            }
            if self.boot != 0 && (boot != self.boot || epoch > self.epoch) {
                self.incarnation_changed = true;
            }
            self.boot = boot;
            self.epoch = epoch;
        }
        Ok(json)
    }

    /// The newest fencing epoch observed from this shard (0 before any
    /// reply).
    pub fn observed_epoch(&self) -> u64 {
        self.epoch
    }
}

/// The TCP-backed shard: [`RpcShard`] over [`TcpRaw`].
pub type RemoteShard = RpcShard<TcpRaw>;

impl RemoteShard {
    /// Connect to a daemon at `addr` (`host:port`) with default
    /// deadlines and a wall clock (tests inject their own via
    /// [`RpcShard::over`]).
    pub fn connect(addr: &str) -> Result<RemoteShard, String> {
        Self::connect_with(addr, NetConfig::default())
    }

    /// Connect with explicit deadlines.
    pub fn connect_with(addr: &str, cfg: NetConfig) -> Result<RemoteShard, String> {
        let mut raw = TcpRaw::new(addr, cfg.io_timeout_s);
        raw.reconnect().map_err(|e| e.to_string())?;
        Ok(RpcShard::over(raw, cfg, Arc::new(WallClock::new())))
    }

    /// The daemon's address.
    pub fn addr(&self) -> &str {
        self.raw.addr()
    }
}

/// An in-process shard behind the full RPC + fault stack: the service
/// answers through [`handle_request`], faults per `plan`, fencing and
/// retries exactly as over TCP. The test harness for everything here.
pub fn over_local(
    service: Arc<Service>,
    plan: Option<NetFaultPlan>,
    shard: usize,
    cfg: NetConfig,
    clock: Arc<dyn Clock>,
) -> RpcShard<FaultyRaw<LocalRaw>> {
    let raw = FaultyRaw::new(LocalRaw::new(service), plan.unwrap_or_default(), shard);
    RpcShard::over(raw, cfg, clock)
}

/// Request-frame budget for one batch RPC: half the daemon's frame
/// limit, leaving room for the envelope. Larger batches go out as
/// several RPCs.
const BATCH_FRAME_BYTES: usize = corun_serve::MAX_FRAME_BYTES / 2;

/// Job ids per multi-id `status` RPC: an id renders to at most 20 digits
/// plus a comma.
const IDS_PER_FRAME: usize = BATCH_FRAME_BYTES / 21;

/// A data op's progress on one link: the chunks still to send and the
/// answers folded so far. Each chunk is one RPC.
enum Run {
    Submit {
        /// Items in the chunk in flight.
        sent: usize,
        rest: std::vec::IntoIter<Vec<Json>>,
        outcomes: Vec<SubmitOutcome>,
    },
    Status {
        /// Ids in the chunk in flight.
        sent: usize,
        rest: std::vec::IntoIter<Vec<usize>>,
        phases: Vec<JobPhase>,
    },
    Metrics,
}

/// What a [`Run`] does after a chunk settles.
enum Next {
    /// Send one more RPC with these fields.
    Send(Vec<(&'static str, Json)>),
    /// The op settled with this reply.
    Done(DataReply),
}

/// A data op whose RPC is backing off until `wake_at` on the link's
/// clock.
struct Parked {
    run: Run,
    rpc: Op,
    wake_at: f64,
}

impl Run {
    fn new(op: DataOp) -> Run {
        match op {
            DataOp::Submit(items) => Run::Submit {
                sent: 0,
                outcomes: Vec::with_capacity(items.len()),
                rest: submit_chunks(items).into_iter(),
            },
            DataOp::Status(ids) => Run::Status {
                sent: 0,
                phases: Vec::with_capacity(ids.len()),
                rest: ids
                    .chunks(IDS_PER_FRAME)
                    .map(<[usize]>::to_vec)
                    .collect::<Vec<_>>()
                    .into_iter(),
            },
            DataOp::Metrics => Run::Metrics,
        }
    }

    /// The next chunk's RPC, or the reply once none is left.
    fn next(&mut self) -> Next {
        match self {
            Run::Submit {
                sent,
                rest,
                outcomes,
            } => match rest.next() {
                Some(items) => {
                    *sent = items.len();
                    Next::Send(vec![
                        ("op", Json::Str("submit".into())),
                        ("items", Json::Arr(items)),
                    ])
                }
                None => Next::Done(DataReply::Submit(std::mem::take(outcomes))),
            },
            Run::Status { sent, rest, phases } => match rest.next() {
                Some(ids) => {
                    *sent = ids.len();
                    let ids = ids.into_iter().map(|id| Json::Num(id as f64)).collect();
                    Next::Send(vec![
                        ("op", Json::Str("status".into())),
                        ("ids", Json::Arr(ids)),
                    ])
                }
                None => Next::Done(DataReply::Status(Ok(std::mem::take(phases)))),
            },
            Run::Metrics => Next::Send(vec![("op", Json::Str("metrics".into()))]),
        }
    }
}

/// Greedy chunks of rendered `{key, spec}` items, each within the frame
/// budget.
fn submit_chunks(items: Vec<(String, String)>) -> Vec<Vec<Json>> {
    let mut chunks: Vec<Vec<Json>> = Vec::new();
    let mut bytes = 0;
    for (key, spec) in items {
        let item = obj(vec![("key", Json::Str(key)), ("spec", Json::Str(spec))]);
        let len = item.render().len() + 1;
        match chunks.last_mut() {
            Some(chunk) if bytes + len <= BATCH_FRAME_BYTES => chunk.push(item),
            _ => {
                chunks.push(vec![item]);
                bytes = 0;
            }
        }
        bytes += len;
    }
    chunks
}

impl<T: RawTransport> RpcShard<T> {
    /// Drive `run` from `rpc` (or from its next chunk): step each RPC and
    /// fold each settled one, until the op settles or, unless `block`,
    /// an RPC has to back off. Then the link parks the op.
    fn advance(&mut self, mut run: Run, rpc: Option<Op>, block: bool) -> Option<DataReply> {
        let mut rpc = match rpc {
            Some(rpc) => rpc,
            None => match run.next() {
                Next::Send(fields) => self.begin(fields),
                Next::Done(reply) => return Some(reply),
            },
        };
        loop {
            match self.step(&mut rpc) {
                Step::RetryAt(t) if block => self.sleep_until(t),
                Step::RetryAt(wake_at) => {
                    self.parked = Some(Parked { run, rpc, wake_at });
                    return None;
                }
                Step::Settled(result) => match self.absorb(&mut run, result) {
                    Next::Send(fields) => rpc = self.begin(fields),
                    Next::Done(reply) => return Some(reply),
                },
            }
        }
    }

    /// Fold one settled chunk into `run`.
    fn absorb(&mut self, run: &mut Run, result: Result<Json, NetError>) -> Next {
        match run {
            Run::Submit { sent, outcomes, .. } => {
                let got = self.submit_outcomes(*sent, result);
                let settled = got
                    .iter()
                    .all(|o| matches!(o, SubmitOutcome::Accepted(_) | SubmitOutcome::Refused(_)));
                outcomes.extend(got);
                if !settled {
                    // As in the per-item default: the rest stay unattempted.
                    return Next::Done(DataReply::Submit(std::mem::take(outcomes)));
                }
            }
            Run::Status { sent, phases, .. } => match self.status_phases(*sent, result) {
                Ok(got) => phases.extend(got),
                Err(e) => return Next::Done(DataReply::Status(Err(e))),
            },
            Run::Metrics => return Next::Done(DataReply::Metrics(metrics_of(result))),
        }
        run.next()
    }

    /// A data op run to the end, sleeping out its backoffs.
    fn run_blocking(&mut self, op: DataOp) -> DataReply {
        debug_assert!(self.parked.is_none(), "a call on a link that holds an op");
        self.advance(Run::new(op), None, true)
            .expect("a blocking run settles")
    }

    /// The outcomes one keyed batch `submit` RPC over `n` items stands
    /// for: one per item.
    fn submit_outcomes(&mut self, n: usize, result: Result<Json, NetError>) -> Vec<SubmitOutcome> {
        let all = |outcome: SubmitOutcome| vec![outcome; n];
        let r = match result {
            Ok(r) => r,
            // Never delivered: safe to abort and re-place. Anything else
            // may have landed on the shard — keyed resolution decides.
            Err(e) if e.certainly_undelivered() => return all(SubmitOutcome::Down(e.to_string())),
            Err(e) => return all(SubmitOutcome::Indeterminate(e.to_string())),
        };
        self.load = load_of(&r);
        match r.get("results").and_then(Json::as_arr) {
            Some(results) if results.len() == n => results.iter().map(submit_outcome).collect(),
            Some(results) => all(SubmitOutcome::Indeterminate(format!(
                "{} results for {n} items",
                results.len()
            ))),
            None => match r.get("error").and_then(Json::as_str) {
                // A daemon that predates keyed batches refuses the whole
                // request before admitting anything: nothing to reject.
                Some(code @ ("bad_request" | "unknown_op")) => all(SubmitOutcome::Down(format!(
                    "{code}: {} does not take keyed batches (protocol {PROTOCOL_VERSION} needed)",
                    self.raw.peer()
                ))),
                _ => all(submit_outcome(&r)),
            },
        }
    }

    /// The phases one multi-id `status` RPC over `n` ids answered.
    fn status_phases(
        &mut self,
        n: usize,
        result: Result<Json, NetError>,
    ) -> Result<Vec<JobPhase>, String> {
        let r = result.map_err(|e| e.to_string())?;
        self.load = load_of(&r);
        if let Some(code) = r.get("error").and_then(Json::as_str) {
            let msg = r.get("message").and_then(Json::as_str);
            return Err(msg.unwrap_or(code).to_string());
        }
        match r.get("phases").and_then(Json::as_arr) {
            Some(got) if got.len() == n => Ok(got.iter().map(|p| phase_of(p.as_str())).collect()),
            _ => Err(format!("{}: malformed phases reply", self.raw.peer())),
        }
    }
}

/// The snapshot a `metrics` reply carries.
fn metrics_of(result: Result<Json, NetError>) -> Result<ShardMetrics, String> {
    let m = result.map_err(|e| e.to_string())?;
    let num = |k: &str| m.get(k).and_then(Json::as_index).unwrap_or(0);
    Ok(ShardMetrics {
        queue_depth: num("queue_depth"),
        submitted: num("submitted"),
        completed: num("completed"),
        dead_lettered: num("dead_lettered"),
        workers_alive: num("workers_alive"),
        machines: num("machines"),
        cap_w: m.get("cap_w").and_then(Json::as_f64).unwrap_or(0.0),
        cap_violations: num("cap_violations"),
        cap_samples: num("cap_samples"),
    })
}

/// The outcome one keyed `submit` reply stands for — a whole single-item
/// reply, or one entry of a batch reply's `results`.
fn submit_outcome(r: &Json) -> SubmitOutcome {
    if r.get("ok").and_then(Json::as_bool) == Some(true) {
        let ids = r
            .get("ids")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_index).collect::<Vec<_>>())
            .unwrap_or_default();
        return SubmitOutcome::Accepted(ids);
    }
    let code = r.get("error").and_then(Json::as_str).unwrap_or("unknown");
    let msg = r
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or("no message")
        .to_string();
    match code {
        "queue_full" => SubmitOutcome::Backpressure {
            retry_after_s: r
                .get("retry_after_s")
                .and_then(Json::as_f64)
                .unwrap_or(0.05)
                .max(0.0),
        },
        "shutting_down" => SubmitOutcome::Down(msg),
        // The accept may be on the shard's disk without being durable:
        // pin the job here for keyed resolution.
        "journal_failed" => SubmitOutcome::Indeterminate(format!("{code}: {msg}")),
        _ => SubmitOutcome::Refused(format!("{code}: {msg}")),
    }
}

/// A reply's `load` object (protocol 3); `None` when it is absent or
/// lacks a counter.
fn load_of(r: &Json) -> Option<LoadSnapshot> {
    let load = r.get("load")?;
    let num = |k: &str| load.get(k).and_then(Json::as_index);
    Some(LoadSnapshot {
        queue_depth: num("queue_depth")?,
        submitted: num("submitted")?,
        completed: num("completed")?,
        dead_lettered: num("dead_lettered")?,
        workers_alive: num("workers_alive")?,
    })
}

/// The phase a `status` state string stands for (`unknown` for an id the
/// shard never admitted).
fn phase_of(state: Option<&str>) -> JobPhase {
    match state {
        Some("done") => JobPhase::Done,
        Some("dead-letter") => JobPhase::DeadLetter,
        Some("rejected") => JobPhase::Rejected,
        Some("unknown") => JobPhase::Unknown,
        _ => JobPhase::Pending,
    }
}

impl<T: RawTransport> ShardBackend for RpcShard<T> {
    fn submit(&mut self, key: &str, spec: &str) -> SubmitOutcome {
        match self.call(vec![
            ("op", Json::Str("submit".into())),
            ("spec", Json::Str(spec.into())),
            ("key", Json::Str(key.into())),
        ]) {
            Ok(r) => submit_outcome(&r),
            Err(e) if e.certainly_undelivered() => SubmitOutcome::Down(e.to_string()),
            Err(e) => SubmitOutcome::Indeterminate(e.to_string()),
        }
    }

    fn job_phase(&mut self, local_id: usize) -> Result<JobPhase, String> {
        Ok(self.job_phases(&[local_id])?[0])
    }

    fn submit_batch(&mut self, items: &[(String, String)]) -> Vec<SubmitOutcome> {
        let DataReply::Submit(outcomes) = self.run_blocking(DataOp::Submit(items.to_vec())) else {
            unreachable!("a submit op settles as a submit reply")
        };
        outcomes
    }

    fn job_phases(&mut self, local_ids: &[usize]) -> Result<Vec<JobPhase>, String> {
        let DataReply::Status(phases) = self.run_blocking(DataOp::Status(local_ids.to_vec()))
        else {
            unreachable!("a status op settles as a status reply")
        };
        phases
    }

    fn metrics(&mut self) -> Result<ShardMetrics, String> {
        let DataReply::Metrics(m) = self.run_blocking(DataOp::Metrics) else {
            unreachable!("a metrics op settles as a metrics reply")
        };
        m
    }

    fn start_op(&mut self, op: DataOp) -> Option<DataReply> {
        debug_assert!(self.parked.is_none(), "a link holds one op at a time");
        self.advance(Run::new(op), None, false)
    }

    fn poll_op(&mut self, block: bool) -> Option<DataReply> {
        let Parked { run, rpc, wake_at } = self.parked.take()?;
        if self.clock.now_s() < wake_at {
            if !block {
                self.parked = Some(Parked { run, rpc, wake_at });
                return None;
            }
            self.sleep_until(wake_at);
        }
        self.advance(run, Some(rpc), block)
    }

    fn set_cap(&mut self, cap_w: f64) -> Result<(), String> {
        let r = self
            .call(vec![
                ("op", Json::Str("set_cap".into())),
                ("cap_w", Json::Num(cap_w)),
            ])
            .map_err(|e| e.to_string())?;
        if r.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(())
        } else {
            Err(r
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("set_cap refused")
                .to_string())
        }
    }

    fn recover(&mut self, cap_w: f64) -> Result<(), String> {
        self.raw.reconnect().map_err(|e| e.to_string())?;
        let r = self
            .call(vec![("op", Json::Str("ping".into()))])
            .map_err(|e| e.to_string())?;
        if r.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{} did not answer ping", self.raw.peer()));
        }
        if cap_w.is_finite() && cap_w > 0.0 {
            self.set_cap(cap_w)?;
        }
        Ok(())
    }

    fn begin_shutdown(&mut self) {
        let _ = self.call(vec![("op", Json::Str("shutdown".into()))]);
    }

    fn finish(&mut self) {
        // Remote daemons outlive the coordinator; local test services
        // are owned (and joined) by whoever holds the Arc.
    }

    fn kind(&self) -> &'static str {
        self.raw.kind()
    }

    fn take_incarnation_change(&mut self) -> bool {
        std::mem::take(&mut self.incarnation_changed)
    }

    fn rpc_stats(&self) -> RpcSnapshot {
        self.stats.snapshot()
    }

    fn fenced_replies(&self) -> u64 {
        self.stats.fenced
    }

    fn take_load(&mut self) -> Option<LoadSnapshot> {
        self.load.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netchaos_parse_accumulates_directives() {
        let plan = NetFaultPlan::parse(
            "srad x0.05 *4\n@netchaos seed=9 drop=0.25 dup=0.5\n@netchaos oneway=1:3..7\n",
        )
        .expect("parse")
        .expect("plan present");
        assert_eq!(plan.seed, 9);
        assert!((plan.drop_p - 0.25).abs() < 1e-12);
        assert!((plan.dup_p - 0.5).abs() < 1e-12);
        assert_eq!(
            plan.partitions,
            vec![Partition {
                shard: 1,
                from_op: 3,
                to_op: 7,
                one_way: true
            }]
        );
        assert!(NetFaultPlan::parse("srad\n")
            .expect("no directive")
            .is_none());
    }

    #[test]
    fn netchaos_parse_names_the_offending_token() {
        for bad in [
            "@netchaos drop=1.5",
            "@netchaos seed=x",
            "@netchaos partition=1:9..3",
            "@netchaos wat=1",
            "@netchaos partition=1",
        ] {
            let err = NetFaultPlan::parse(bad).expect_err("must fail");
            assert!(err.contains('`'), "error should quote the token: {err}");
        }
    }

    #[test]
    fn lint_netchaos_reports_flt005_with_line() {
        let (plan, report) = lint_netchaos("srad\n@netchaos drop=oops\n");
        assert!(plan.is_none());
        assert!(report.has_errors());
        assert!(report.render_human().contains("netchaos:2"));
    }

    #[test]
    fn faulty_raw_is_deterministic_per_seed_and_shard() {
        struct Echo;
        impl RawTransport for Echo {
            fn exchange(&mut self, line: &str) -> Result<String, NetError> {
                Ok(line.to_string())
            }
            fn reconnect(&mut self) -> Result<(), NetError> {
                Ok(())
            }
            fn peer(&self) -> String {
                "echo".into()
            }
            fn kind(&self) -> &'static str {
                "local"
            }
        }
        let plan = NetFaultPlan::parse("@netchaos seed=7 drop=0.3 drop-reply=0.2 truncate=0.2\n")
            .expect("parse")
            .expect("plan");
        let run = |shard: usize| {
            let mut t = FaultyRaw::new(Echo, plan.clone(), shard);
            (0..64)
                .map(|i| match t.exchange(&format!("req-{i}")) {
                    Ok(r) => format!("ok:{r}"),
                    Err(e) => format!("err:{e}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same seed+shard replays identically");
        assert_ne!(run(0), run(1), "different shards draw different streams");
    }
}
