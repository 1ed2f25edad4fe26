//! The diagnostic type, stable code catalog, and report rendering.
//!
//! Every check in the workspace — schedule lints, config validation,
//! spec parsing, runtime sanitizers — reports through [`Diagnostic`], a
//! compiler-style record with a stable [`Code`], a [`Severity`], a
//! human-readable location, a message, and optional help text. Tools
//! collect diagnostics into a [`Report`] which renders either for humans
//! (rustc-style) or as JSON for machine consumption.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily wrong; does not fail a lint run.
    Warning,
    /// A violated invariant; `corun lint` exits non-zero.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes.
///
/// Codes are append-only: once shipped, a code keeps its meaning forever
/// so scripts can match on them. The catalog lives in
/// `docs/DIAGNOSTICS.md`; [`Code::invariant`] and [`Code::paper_ref`]
/// carry the same information programmatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Duplicate, missing, or out-of-range job assignment in a schedule.
    Sch001,
    /// Co-Run Theorem violation: a scheduled pair where solo execution
    /// would beat the co-run under the model.
    Sch002,
    /// Power-cap infeasible frequency pair: a schedule segment whose
    /// modeled package power exceeds the cap.
    Sch003,
    /// Reported makespan below the theoretical lower bound.
    Sch004,
    /// Frequency level out of range for the device's DVFS ladder.
    Sch005,
    /// Malformed DVFS frequency ladder in a machine config.
    Cfg001,
    /// Non-physical device parameters (compute rate, bandwidth, power).
    Cfg002,
    /// Inconsistent shared-memory model parameters.
    Cfg003,
    /// Bad package power or multiprogramming parameters.
    Cfg004,
    /// Bad simulation timing parameters (tick, power sample period).
    Cfg005,
    /// Performance-model surface fails leave-one-out cross-validation.
    Cfg006,
    /// Unknown or malformed machine-config override.
    Cfg007,
    /// Workload spec syntax error.
    Spc001,
    /// Workload spec contains no jobs.
    Spc002,
    /// Unknown program name in a workload spec.
    Spc003,
    /// Input scale far outside the calibrated range.
    Spc004,
    /// Excessive instance count on one spec line.
    Spc005,
    /// Duplicate spec line (same program and scale).
    Spc006,
    /// Simulation clock went backwards (runtime sanitizer).
    Sim001,
    /// Energy accounting mismatch: a window's average power left the
    /// [min, max] envelope of its instantaneous samples.
    Sim002,
    /// Sustained package-power excursion above the cap beyond the
    /// governor's reaction tolerance.
    Sim003,
    /// Non-physical package power (negative or non-finite).
    Sim004,
    /// Event-loop livelock: the engine saw a sustained run of wake-ups
    /// that did not advance the simulation clock.
    Sim005,
    /// Malformed `@chaos` fault-plan directive.
    Srv001,
    /// A machine crashed (injected or real); its in-flight jobs were
    /// evicted for rescheduling.
    Srv002,
    /// A dispatched job failed mid-run and will be retried.
    Srv003,
    /// A dispatched job straggled (ran slower than modeled).
    Srv004,
    /// The power meter was disturbed (noise or spike) — cap-governor
    /// reactions may be phantom.
    Srv005,
    /// A job exhausted its retry budget and was dead-lettered.
    Srv006,
    /// The service journal is unreadable, torn, or version-mismatched.
    Srv007,
    /// An oversized protocol frame was rejected.
    Srv008,
    /// Recovery's fold refused a journal record (an accept-id gap, an
    /// unknown id, a duplicate completion) or could not rebuild a job;
    /// the journal is abandoned.
    Srv009,
    /// Journal records are individually valid but causally out of order
    /// (e.g. `done` before `dispatch`); the journal is abandoned rather
    /// than replayed.
    Srv010,
    /// A scheduling decision path reads a wall-clock or entropy source
    /// directly (`Instant::now`, `SystemTime::now`, thread RNG) instead
    /// of the injected `Clock`/`DetRng`, breaking deterministic replay.
    Srv011,
    /// Model checking reached a state where an accepted job vanished:
    /// not queued, not running, not done, not dead-lettered.
    Mc0001,
    /// Model checking reached a state where one job occupies two device
    /// slots at once (double dispatch).
    Mc0002,
    /// Model checking reached a state whose journal replay disagrees
    /// with the in-memory state, or whose replay is not idempotent.
    Mc0003,
    /// Model checking reached a state whose counters (power/work books)
    /// disagree with the job table.
    Mc0004,
    /// Bounded exploration hit a depth or state budget before
    /// exhausting the scope; the verdict covers only the visited part.
    Mc0005,
    /// Certificate file is malformed or fails to parse.
    Crt001,
    /// Certificate checksum does not match its content (tampering or
    /// corruption).
    Crt002,
    /// A certificate segment's witnessed package power exceeds the cap,
    /// or its power arithmetic does not re-derive.
    Crt003,
    /// A certificate co-run pair witness fails the Co-Run Theorem
    /// precondition arithmetic.
    Crt004,
    /// The certificate lower-bound witness does not re-derive, or the
    /// claimed makespan is below the witnessed bound.
    Crt005,
    /// Certificate segments do not tile the makespan, or a job is
    /// missing from / duplicated in the segment accounting.
    Crt006,
    /// The cluster power cap cannot cover every shard's budget floor:
    /// partitioning would degrade and shards may be unable to admit
    /// any job.
    Flt001,
    /// Fleet topology is degenerate (zero shards, zero machines per
    /// shard, or a total machine count outside simulation-friendly
    /// bounds).
    Flt002,
    /// Work-stealing or budget-rebalance parameters are outside
    /// responsive bounds (e.g. a steal threshold so high imbalance is
    /// never corrected, or a rebalance cadence of zero).
    Flt003,
    /// The sum of live shard caps exceeds the cluster cap — the fleet
    /// budget invariant is broken.
    Flt004,
    /// Malformed `@netchaos` network-fault-plan directive.
    Flt005,
    /// Transport or circuit-breaker parameters are outside workable
    /// bounds (e.g. a dead threshold below the suspect threshold).
    Flt006,
    /// A shard's circuit breaker opened: consecutive transport failures
    /// crossed the dead threshold and the coordinator stopped routing
    /// to it.
    Flt007,
    /// A reply carrying a stale fencing epoch was rejected — an old
    /// shard incarnation answered after a newer one was observed.
    Flt008,
    /// The fleet coordinator journal is unreadable, torn, or corrupt.
    Flt009,
    /// Replay reached a journal snapshot whose recorded fingerprint
    /// disagrees with the fingerprint of the re-executed state.
    Rpl001,
    /// The terminal state of a replay disagrees with the live (or last
    /// checkpointed) state it should reproduce bit-identically.
    Rpl002,
    /// Re-applying a journal record produced a different transition than
    /// the journal recorded (divergent id, attempt, or refused
    /// transition).
    Rpl003,
    /// A journal snapshot's embedded state document does not decode, or
    /// does not fold onto the snapshots before it.
    Rpl004,
}

impl Code {
    /// Every code, in catalog order.
    pub const ALL: [Code; 58] = [
        Code::Sch001,
        Code::Sch002,
        Code::Sch003,
        Code::Sch004,
        Code::Sch005,
        Code::Cfg001,
        Code::Cfg002,
        Code::Cfg003,
        Code::Cfg004,
        Code::Cfg005,
        Code::Cfg006,
        Code::Cfg007,
        Code::Spc001,
        Code::Spc002,
        Code::Spc003,
        Code::Spc004,
        Code::Spc005,
        Code::Spc006,
        Code::Sim001,
        Code::Sim002,
        Code::Sim003,
        Code::Sim004,
        Code::Sim005,
        Code::Srv001,
        Code::Srv002,
        Code::Srv003,
        Code::Srv004,
        Code::Srv005,
        Code::Srv006,
        Code::Srv007,
        Code::Srv008,
        Code::Srv009,
        Code::Srv010,
        Code::Srv011,
        Code::Mc0001,
        Code::Mc0002,
        Code::Mc0003,
        Code::Mc0004,
        Code::Mc0005,
        Code::Crt001,
        Code::Crt002,
        Code::Crt003,
        Code::Crt004,
        Code::Crt005,
        Code::Crt006,
        Code::Flt001,
        Code::Flt002,
        Code::Flt003,
        Code::Flt004,
        Code::Flt005,
        Code::Flt006,
        Code::Flt007,
        Code::Flt008,
        Code::Flt009,
        Code::Rpl001,
        Code::Rpl002,
        Code::Rpl003,
        Code::Rpl004,
    ];

    /// The stable textual form, e.g. `"SCH001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::Sch001 => "SCH001",
            Code::Sch002 => "SCH002",
            Code::Sch003 => "SCH003",
            Code::Sch004 => "SCH004",
            Code::Sch005 => "SCH005",
            Code::Cfg001 => "CFG001",
            Code::Cfg002 => "CFG002",
            Code::Cfg003 => "CFG003",
            Code::Cfg004 => "CFG004",
            Code::Cfg005 => "CFG005",
            Code::Cfg006 => "CFG006",
            Code::Cfg007 => "CFG007",
            Code::Spc001 => "SPC001",
            Code::Spc002 => "SPC002",
            Code::Spc003 => "SPC003",
            Code::Spc004 => "SPC004",
            Code::Spc005 => "SPC005",
            Code::Spc006 => "SPC006",
            Code::Sim001 => "SIM001",
            Code::Sim002 => "SIM002",
            Code::Sim003 => "SIM003",
            Code::Sim004 => "SIM004",
            Code::Sim005 => "SIM005",
            Code::Srv001 => "SRV001",
            Code::Srv002 => "SRV002",
            Code::Srv003 => "SRV003",
            Code::Srv004 => "SRV004",
            Code::Srv005 => "SRV005",
            Code::Srv006 => "SRV006",
            Code::Srv007 => "SRV007",
            Code::Srv008 => "SRV008",
            Code::Srv009 => "SRV009",
            Code::Srv010 => "SRV010",
            Code::Srv011 => "SRV011",
            Code::Mc0001 => "MC0001",
            Code::Mc0002 => "MC0002",
            Code::Mc0003 => "MC0003",
            Code::Mc0004 => "MC0004",
            Code::Mc0005 => "MC0005",
            Code::Crt001 => "CRT001",
            Code::Crt002 => "CRT002",
            Code::Crt003 => "CRT003",
            Code::Crt004 => "CRT004",
            Code::Crt005 => "CRT005",
            Code::Crt006 => "CRT006",
            Code::Flt001 => "FLT001",
            Code::Flt002 => "FLT002",
            Code::Flt003 => "FLT003",
            Code::Flt004 => "FLT004",
            Code::Flt005 => "FLT005",
            Code::Flt006 => "FLT006",
            Code::Flt007 => "FLT007",
            Code::Flt008 => "FLT008",
            Code::Flt009 => "FLT009",
            Code::Rpl001 => "RPL001",
            Code::Rpl002 => "RPL002",
            Code::Rpl003 => "RPL003",
            Code::Rpl004 => "RPL004",
        }
    }

    /// The severity a diagnostic with this code gets unless a pass
    /// overrides it (e.g. SCH003 downgrades to a warning when frequency
    /// levels are governor-owned rather than planned).
    pub fn default_severity(&self) -> Severity {
        match self {
            Code::Sch002 | Code::Cfg006 | Code::Spc004 | Code::Spc005 | Code::Spc006 => {
                Severity::Warning
            }
            // Injected/observed fault events are expected during chaos
            // runs; only malformed plans (SRV001), lost work (SRV006),
            // and journals recovery must abandon (SRV009 records the
            // fold refuses, SRV010 causally broken ones) are errors.
            Code::Srv002
            | Code::Srv003
            | Code::Srv004
            | Code::Srv005
            | Code::Srv007
            | Code::Srv008 => Severity::Warning,
            // Incomplete exploration is a caveat, not a counterexample.
            Code::Mc0005 => Severity::Warning,
            // Sluggish steal/rebalance tuning degrades throughput but
            // breaks no invariant.
            Code::Flt003 => Severity::Warning,
            // Circuit opens and fenced stale replies are the partition
            // machinery *working*: observable events, not failures.
            Code::Flt007 | Code::Flt008 => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line statement of the invariant the code enforces.
    pub fn invariant(&self) -> &'static str {
        match self {
            Code::Sch001 => "every job is assigned exactly once across cpu, gpu, and solo queues",
            Code::Sch002 => "co-run pairs satisfy the Co-Run Theorem benefit condition",
            Code::Sch003 => "modeled package power of every segment stays within the power cap",
            Code::Sch004 => "makespan(S) >= lower_bound(model, cap)",
            Code::Sch005 => "every frequency level indexes into the device's DVFS ladder",
            Code::Cfg001 => "DVFS ladders are non-empty, positive, and strictly increasing",
            Code::Cfg002 => "device compute/bandwidth/power parameters are physical",
            Code::Cfg003 => "shared-memory parameters are consistent and positive",
            Code::Cfg004 => "package power and multiprogramming parameters are sane",
            Code::Cfg005 => "simulation tick and power sample period are positive and ordered",
            Code::Cfg006 => "performance-model surfaces interpolate within tolerance (LOO)",
            Code::Cfg007 => "machine-config overrides name real fields with parseable values",
            Code::Spc001 => "workload spec lines follow `name [xSCALE] [*COUNT]`",
            Code::Spc002 => "a workload spec declares at least one job",
            Code::Spc003 => "every program name exists in the calibrated suite",
            Code::Spc004 => "input scales stay near the calibrated range",
            Code::Spc005 => "instance counts stay within simulation-friendly bounds",
            Code::Spc006 => "no two spec lines duplicate the same program and scale",
            Code::Sim001 => "the simulation event clock is monotonic",
            Code::Sim002 => "window-average power lies within the instantaneous min/max envelope",
            Code::Sim003 => {
                "package power never exceeds the cap beyond governor reaction tolerance"
            }
            Code::Sim004 => "package power is finite and non-negative",
            Code::Sim005 => "every simulation wake-up advances the event clock",
            Code::Srv001 => "`@chaos` directives follow the documented key=value grammar",
            Code::Srv002 => "machine crashes evict in-flight jobs for rescheduling, not loss",
            Code::Srv003 => "failed jobs are requeued within their retry budget",
            Code::Srv004 => "straggler slowdowns are recorded, not silently absorbed",
            Code::Srv005 => "power-meter disturbances are visible in the diagnostics stream",
            Code::Srv006 => "jobs that exhaust retries surface as dead-letter, never vanish",
            Code::Srv007 => "the service journal parses under its declared format version and keeps every acknowledged reply durable",
            Code::Srv008 => "protocol frames stay within the configured size bound",
            Code::Srv009 => "every journal record re-applies through the service transition that wrote it",
            Code::Srv010 => {
                "journal records respect dispatch/completion causality and retry monotonicity"
            }
            Code::Mc0001 => "no accepted job is ever lost in any reachable service state",
            Code::Mc0002 => "no job occupies more than one device slot in any reachable state",
            Code::Mc0003 => "journal replay is idempotent and agrees with the in-memory state",
            Code::Mc0004 => {
                "service counters balance against the job table in every reachable state"
            }
            Code::Mc0005 => "bounded exploration exhausts the declared scope",
            Code::Crt001 => "certificates follow the documented text format",
            Code::Crt002 => "certificate content matches its embedded checksum",
            Code::Crt003 => {
                "every certified segment's witnessed power re-derives and respects the cap"
            }
            Code::Crt004 => "every certified co-run pair carries a valid Co-Run Theorem witness",
            Code::Crt005 => "the certified lower bound re-derives and the makespan respects it",
            Code::Crt006 => {
                "certified segments tile the makespan and account for every job exactly once"
            }
            Code::Flt001 => "the cluster power cap covers every shard's budget floor",
            Code::Flt002 => "the fleet has at least one shard and one machine per shard",
            Code::Flt003 => "steal and rebalance parameters keep the fleet responsive",
            Code::Flt004 => "shard power caps never sum past the cluster cap",
            Code::Flt005 => "`@netchaos` directives follow the documented key=value grammar",
            Code::Flt006 => "transport and circuit-breaker parameters are workable",
            Code::Flt007 => "circuit-breaker opens are visible in the diagnostics stream",
            Code::Flt008 => "replies from stale shard incarnations are fenced, never folded",
            Code::Flt009 => "the fleet journal parses under its declared format version and keeps every admission durable",
            Code::Srv011 => {
                "scheduling decisions read time and randomness only through injected sources"
            }
            Code::Rpl001 => "replaying a journal prefix reproduces every snapshot fingerprint",
            Code::Rpl002 => "full journal replay reproduces the terminal state bit-identically",
            Code::Rpl003 => "every journal record re-applies to exactly the transition it recorded",
            Code::Rpl004 => "journal snapshots decode and fold back into a service state",
        }
    }

    /// The paper section the invariant comes from, or "-" for
    /// implementation-level invariants.
    pub fn paper_ref(&self) -> &'static str {
        match self {
            Code::Sch001 => "Sec. IV (schedule definition)",
            Code::Sch002 => "Sec. IV-A (Co-Run Theorem)",
            Code::Sch003 => "Sec. II (power cap), Sec. IV-C",
            Code::Sch004 => "Sec. IV-B (lower bound)",
            Code::Sch005 => "Sec. II (DVFS levels)",
            Code::Cfg006 => "Sec. V (model validation)",
            Code::Sim003 => "Sec. II (power cap), Sec. VI",
            Code::Crt003 => "Sec. II (power cap), Sec. IV-C",
            Code::Crt004 => "Sec. IV-A (Co-Run Theorem)",
            Code::Crt005 => "Sec. IV-B (lower bound)",
            Code::Flt001 | Code::Flt004 => "Sec. II (power cap)",
            _ => "-",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code identifying the invariant.
    pub code: Code,
    /// Severity (defaults to [`Code::default_severity`]).
    pub severity: Severity,
    /// Where the problem is, e.g. `spec.txt:3` or `schedule.cpu[1]`.
    pub location: String,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when there is something actionable to say.
    pub help: Option<String>,
}

impl Diagnostic {
    /// New diagnostic with the code's default severity.
    pub fn new(code: Code, location: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            location: location.into(),
            message: message.into(),
            help: None,
        }
    }

    /// Attach help text.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Override the severity.
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.severity, self.code, self.location, self.message
        )
    }
}

/// A collection of diagnostics from one lint run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All findings, in the order the passes produced them.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Report from a list of findings.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> Self {
        Report { diagnostics }
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Whether the run is clean enough to proceed: no error-severity
    /// findings (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether any finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of findings carrying `code`.
    pub fn count(&self, code: Code) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }

    /// Append another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Push one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Rustc-style rendering for terminals, ending with a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
            if let Some(help) = &d.help {
                out.push_str(&format!("  help: {help}\n"));
            }
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        if errors == 0 && warnings == 0 {
            out.push_str("clean: no diagnostics\n");
        } else {
            out.push_str(&format!(
                "{} error{}, {} warning{}\n",
                errors,
                if errors == 1 { "" } else { "s" },
                warnings,
                if warnings == 1 { "" } else { "s" },
            ));
        }
        out
    }

    /// JSON rendering: an array of objects with `code`, `severity`,
    /// `location`, `message`, and (when present) `help` fields.
    pub fn render_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"code\": \"{}\", \"severity\": \"{}\", \"location\": \"{}\", \"message\": \"{}\"",
                d.code,
                d.severity,
                json_escape(&d.location),
                json_escape(&d.message),
            ));
            if let Some(help) = &d.help {
                out.push_str(&format!(", \"help\": \"{}\"", json_escape(help)));
            }
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push('\n');
        }
        out.push_str("]\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert_eq!(c.as_str().len(), 6);
            assert!(!c.invariant().is_empty());
            assert!(!c.paper_ref().is_empty());
        }
        assert_eq!(seen.len(), Code::ALL.len());
    }

    #[test]
    fn severity_defaults() {
        assert_eq!(Code::Sch001.default_severity(), Severity::Error);
        assert_eq!(Code::Sch002.default_severity(), Severity::Warning);
        assert_eq!(Code::Sch003.default_severity(), Severity::Error);
        assert_eq!(Code::Spc006.default_severity(), Severity::Warning);
    }

    #[test]
    fn report_renders_human_and_json() {
        let mut r = Report::new();
        r.push(
            Diagnostic::new(Code::Spc003, "spec.txt:2", "unknown program `nope`")
                .with_help("run `corun programs` for the list"),
        );
        r.push(Diagnostic::new(
            Code::Spc004,
            "spec.txt:3",
            "scale x100 is extreme",
        ));
        let human = r.render_human();
        assert!(human.contains("error[SPC003]: spec.txt:2: unknown program `nope`"));
        assert!(human.contains("help: run `corun programs`"));
        assert!(human.contains("1 error, 1 warning"));
        let json = r.render_json();
        assert!(json.contains("\"code\": \"SPC003\""));
        assert!(json.contains("\"severity\": \"warning\""));
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
    }

    #[test]
    fn json_escaping_handles_quotes_and_newlines() {
        let r = Report::from_diagnostics(vec![Diagnostic::new(
            Code::Spc001,
            "a\"b",
            "line\nbreak\tand \\ slash",
        )]);
        let json = r.render_json();
        assert!(json.contains("a\\\"b"));
        assert!(json.contains("line\\nbreak\\tand \\\\ slash"));
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::new();
        assert!(r.is_clean());
        assert!(r.is_empty());
        assert!(r.render_human().contains("clean"));
        assert_eq!(r.render_json().trim(), "[]");
    }
}
