//! `corun replay` — deterministically re-execute a service journal.
//!
//! The daemon is event-sourced (`docs/REPLAY.md`): its journal is a
//! complete transcript of every scheduling decision, so re-applying the
//! records through the pure state machine reproduces the recorded run
//! bit-identically. This command does exactly that, verifies every
//! embedded snapshot checkpoint on the way, and exits non-zero on any
//! divergence (`RPL0xx`) — the post-mortem and regression tool for
//! "what did the daemon actually do, and does today's code still agree".

use crate::args::Args;
use corun_replay::{check_terminal, replay_journal, ReplayOptions};
use std::path::Path;

/// `corun replay JOURNAL [--until SEQ] [--diff] [--expect HEXFP]`.
pub fn cmd_replay(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["until", "diff", "expect", "quiet"])?;
    let journal = args
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or("usage: corun replay JOURNAL [--until SEQ] [--diff] [--expect HEXFP]")?;
    let opts = ReplayOptions {
        until: args.num::<u64>("until")?,
        diff: args.flag("diff"),
    };
    let mut outcome = replay_journal(Path::new(journal), &opts);

    // --expect pins the terminal fingerprint to an external value: the
    // live daemon's own (CI smoke), or one recorded in a bug report.
    if let Some(hex) = args.opt("expect") {
        let expected = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("--expect {hex}: not a hex fingerprint: {e}"))?;
        check_terminal(&mut outcome, expected, "expected");
    }

    if !args.flag("quiet") {
        println!(
            "replayed {} record(s), verified {} snapshot(s){}",
            outcome.records_applied,
            outcome.snapshots_verified,
            outcome
                .last_snapshot_at
                .map_or_else(String::new, |at| format!(" (last at record {at})")),
        );
        if let Some(cap_w) = outcome.cap_w {
            println!("final journaled cap: {cap_w} W");
        }
        println!("terminal fingerprint: {:016x}", outcome.fingerprint());
        let c = &outcome.state.counters;
        println!(
            "terminal state: {} job(s), {} queued, {} completed, {} dead-lettered, {} eviction(s)",
            outcome.state.jobs().len(),
            outcome.state.queue.len(),
            c.completed,
            c.dead_lettered,
            c.evictions
        );
    }
    for d in &outcome.diffs {
        println!("diff: {d}");
    }
    if !outcome.report.is_empty() {
        print!("{}", outcome.report.render_human());
    }
    if outcome.is_clean() {
        Ok(())
    } else {
        let n = outcome.report.errors().count();
        Err(format!(
            "replay diverged: {n} error{}",
            if n == 1 { "" } else { "s" }
        ))
    }
}
