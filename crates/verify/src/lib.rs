//! # corun-verify — workspace-wide static verification & lints
//!
//! A compiler-style diagnostics engine for the co-run scheduling stack:
//! every checkable invariant — from the Co-Run Theorem (paper Sec. IV-A)
//! down to "this spec line parses" — reports through one [`Diagnostic`]
//! type with a stable code, a severity, a location, and help text.
//! `docs/DIAGNOSTICS.md` catalogs every code.
//!
//! * `SCH0xx` — schedule lints ([`schedule`]): completeness, theorem
//!   compliance, cap feasibility, lower-bound consistency, level ranges.
//! * `CFG0xx` — machine-config and model-quality lints ([`config`]),
//!   absorbing `apu_sim::validate` and `perf_model::validate`.
//! * `SPC0xx` — workload-spec lints ([`spec`]).
//! * `SIM0xx` — runtime sanitizer findings (`sim`, feature
//!   `sanitize`), fed by `apu_sim::sanitize` hooks in the engine.
//! * `SRV0xx` — service/fault-tolerance findings: `@chaos` fault-plan
//!   lints ([`lint_chaos`]) plus the runtime events `corun-serve` emits
//!   on crashes, retries, dead-letters, journal problems, and oversized
//!   frames (see `docs/FAULTS.md`). `SRV011` is the static wall-clock
//!   source lint ([`source`]) guarding deterministic replay.
//! * `RPL0xx` — deterministic-replay findings emitted by `corun-replay`
//!   when re-executing a journal diverges from the recorded run
//!   (`docs/REPLAY.md`).
//!
//! Checks compose through the [`LintPass`] trait: a pass reads the
//! [`LintContext`] and appends diagnostics, and a [`Linter`] runs a
//! registered sequence of passes. [`lint_schedule`], [`lint_machine`],
//! and [`lint_spec_full`] are one-call conveniences over the same
//! passes.
//!
//! ```
//! use corun_verify::{lint_spec_full, Code};
//!
//! let (_lines, report) = lint_spec_full("lud x0.8 *3\nnosuchprogram\n");
//! assert!(report.has(Code::Spc003));
//! assert!(report.has_errors());
//! ```

pub mod cert;
pub mod config;
pub mod diag;
pub mod fleet;
pub mod pass;
pub mod schedfile;
pub mod schedule;
#[cfg(feature = "sanitize")]
pub mod sim;
pub mod source;
pub mod spec;

pub use cert::{check_certificate, check_certificate_text, check_parsed};
pub use config::{apply_overrides, diagnostic_from_issue, lint_loo, lint_machine};
pub use diag::{Code, Diagnostic, Report, Severity};
pub use fleet::{lint_fleet, lint_net_config, lint_shard_caps, FleetParams, NetParams};
pub use pass::{LintContext, LintPass, Linter};
pub use schedfile::{parse_schedule_file, ScheduleFile};
pub use source::{lint_wall_clock, ALLOW_MARKER};
pub use spec::{
    build_jobs, lint_chaos, lint_spec, lint_spec_full, lint_spec_programs, parse_spec, SpecLine,
};

use corun_core::{CoRunModel, Schedule};

/// Run every schedule pass (`SCH001`–`SCH005`) over one schedule.
///
/// `levels_planned` says who owns the frequency levels: `true` when the
/// scheduler planned them (cap infeasibility is an error), `false` when
/// a runtime governor will clip power (cap infeasibility downgrades to
/// a warning — e.g. the Random baseline always assigns maximum levels).
pub fn lint_schedule(
    model: &dyn CoRunModel,
    schedule: &Schedule,
    cap_w: Option<f64>,
    levels_planned: bool,
) -> Report {
    let ctx = LintContext {
        levels_planned,
        ..LintContext::for_schedule(model, schedule, cap_w)
    };
    schedule_linter().run(&ctx)
}

/// Structural schedule lints only (`SCH001`, `SCH005`): cheap enough
/// for debug assertions on every scheduler output.
pub fn lint_schedule_structure(model: &dyn CoRunModel, schedule: &Schedule) -> Report {
    let mut linter = Linter::new();
    linter.register(Box::new(schedule::CompletenessPass));
    linter.register(Box::new(schedule::LevelRangePass));
    linter.run(&LintContext::for_schedule(model, schedule, None))
}

/// Lint a schedule together with an externally reported makespan
/// (`SCH004` checks the claim against the lower bound).
pub fn lint_run_report(
    model: &dyn CoRunModel,
    schedule: &Schedule,
    cap_w: Option<f64>,
    levels_planned: bool,
    reported_makespan_s: f64,
) -> Report {
    let ctx = LintContext {
        levels_planned,
        reported_makespan_s: Some(reported_makespan_s),
        ..LintContext::for_schedule(model, schedule, cap_w)
    };
    schedule_linter().run(&ctx)
}

fn schedule_linter() -> Linter {
    let mut linter = Linter::new();
    linter.register(Box::new(schedule::CompletenessPass));
    linter.register(Box::new(schedule::LevelRangePass));
    linter.register(Box::new(schedule::TheoremPass));
    linter.register(Box::new(schedule::CapFeasibilityPass));
    linter.register(Box::new(schedule::BoundPass));
    linter
}
