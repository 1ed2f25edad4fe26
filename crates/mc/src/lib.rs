//! # corun-mc — bounded model checking for the co-scheduling service
//!
//! The daemon in `corun-serve` claims safety properties — no accepted
//! job is ever lost, nothing is double-dispatched, the crash journal
//! replays to exactly the state the daemon held, the books balance —
//! and backs them with tests that *sample* interleavings and kill
//! points. This crate checks them exhaustively at small scope instead:
//! every interleaving of client, worker, crash, and kill/recover events
//! within a [`Scope`] (e.g. 2 machines × 3 jobs × 1 kill × 1 crash),
//! with a kill considered at every journal boundary.
//!
//! The checked model **is** the production code: events drive the same
//! [`ServiceState`](corun_serve::ServiceState) transition functions the
//! live daemon uses (`crates/serve/src/state.rs`), journal records are
//! the daemon's own [`Record`](corun_serve::Record)s, and recovery is
//! the daemon's own fold + recover ([`Node::recovered`]). What the checker
//! proves holds for the daemon, modulo only the thin driver layer
//! (locks, sockets, wall-clock gates).
//!
//! [`explore()`] runs a breadth-first search with visited-state
//! memoization; the first violation is therefore reached by a minimal
//! event schedule, rendered as an MC0xx diagnostic with the full trace
//! (see `docs/MODELCHECK.md` for the catalog). [`Mutation`] seeds a
//! deliberately broken transition so CI can prove the checker finds
//! bugs — a model checker that never fails is indistinguishable from
//! one that checks nothing.
//!
//! ```
//! use corun_mc::{explore, Mutation, Scope};
//!
//! let ex = explore(&Scope { jobs: 1, max_kills: 1, ..Scope::default() }, Mutation::None);
//! assert!(ex.proved(), "{}", ex.report().render_human());
//! ```

pub mod explore;
pub mod model;

pub use explore::{code_for, explore, Counterexample, Exploration};
pub use model::{apply, enabled, memo_key, Event, Mutation, Node, Scope};

#[cfg(test)]
mod tests {
    use super::*;
    use corun_serve::state::ViolationKind;
    use corun_verify::Code;

    #[test]
    fn smoke_scope_proves_all_invariants() {
        let ex = explore(&Scope::smoke(), Mutation::None);
        assert!(
            ex.counterexample.is_none(),
            "unexpected violation:\n{}",
            ex.report().render_human()
        );
        assert!(!ex.truncated, "smoke scope must be exhaustible");
        assert!(ex.proved());
        assert!(ex.report().is_empty());
        assert!(ex.summary().contains("proved"));
        // The scope is not degenerate: thousands of distinct states.
        assert!(ex.states > 1_000, "only {} states", ex.states);
    }

    /// Every seeded mutation explored in `scope` must yield a
    /// counterexample of its own violation kind and code.
    fn convicts_every_seeded_mutation(scope: &Scope) {
        let expect = [
            (
                Mutation::LoseEvictedJob,
                ViolationKind::JobLost,
                Code::Mc0001,
            ),
            (
                Mutation::DoubleDispatch,
                ViolationKind::DoubleDispatch,
                Code::Mc0002,
            ),
            (
                Mutation::SkipDeadRecord,
                ViolationKind::ReplayMismatch,
                Code::Mc0003,
            ),
            (
                Mutation::DoubleCountCompletion,
                ViolationKind::BooksImbalance,
                Code::Mc0004,
            ),
        ];
        for (mutation, kind, code) in expect {
            let ex = explore(scope, mutation);
            let cex = ex
                .counterexample
                .as_ref()
                .unwrap_or_else(|| panic!("{mutation:?} produced no counterexample"));
            assert!(
                cex.violations.iter().any(|v| v.kind == kind),
                "{mutation:?}: wrong violation kinds: {:?}",
                cex.violations
            );
            let report = ex.report();
            assert!(report.has(code), "{mutation:?}: {}", report.render_human());
            assert!(report.has_errors());
            // The trace renders and ends in the violation.
            let trace = cex.render(&ex.scope, mutation);
            assert!(trace.contains("violated:"), "{trace}");
            assert!(!cex.events.is_empty());
        }
    }

    #[test]
    fn every_seeded_mutation_yields_a_counterexample() {
        convicts_every_seeded_mutation(&Scope::smoke());
    }

    /// The shutdown transition, which no CLI scope turns on: with it the
    /// smoke scope still proves clean, reaches more states, and convicts
    /// every seeded bug.
    #[test]
    fn the_shutdown_scope_proves_clean_and_convicts_every_mutation() {
        let scope = Scope {
            model_shutdown: true,
            ..Scope::smoke()
        };
        let ex = explore(&scope, Mutation::None);
        assert!(ex.proved(), "{}", ex.report().render_human());
        let smoke = explore(&Scope::smoke(), Mutation::None).states;
        assert!(
            ex.states > smoke,
            "shutdown added no states ({} vs {smoke})",
            ex.states
        );
        convicts_every_seeded_mutation(&scope);
    }

    #[test]
    fn counterexamples_are_minimal_schedules() {
        // Losing an evicted job takes submit, dispatch, crash — three
        // events. BFS must find a trace of exactly that length.
        let ex = explore(&Scope::smoke(), Mutation::LoseEvictedJob);
        let cex = ex.counterexample.expect("must find the seeded bug");
        assert_eq!(cex.events.len(), 3, "not minimal: {:?}", cex.events);
        // Double dispatch needs only submit + dispatch.
        let ex = explore(&Scope::smoke(), Mutation::DoubleDispatch);
        let cex = ex.counterexample.expect("must find the seeded bug");
        assert_eq!(cex.events.len(), 2, "not minimal: {:?}", cex.events);
    }

    #[test]
    fn state_budget_truncation_is_reported_as_mc0005() {
        let scope = Scope {
            max_states: 50,
            ..Scope::smoke()
        };
        let ex = explore(&scope, Mutation::None);
        assert!(ex.truncated);
        assert!(!ex.proved());
        let report = ex.report();
        assert!(report.has(Code::Mc0005));
        assert!(!report.has_errors(), "truncation is a warning, not a bug");
    }

    #[test]
    fn mutation_cli_spellings_roundtrip() {
        assert_eq!(Mutation::parse("none"), Some(Mutation::None));
        for (name, m) in Mutation::SEEDABLE {
            assert_eq!(Mutation::parse(name), Some(m));
        }
        assert_eq!(Mutation::parse("nope"), None);
    }

    #[test]
    fn kills_at_every_boundary_are_actually_explored() {
        // With kills enabled the state count strictly grows versus a
        // kill-free scope: recovery paths are genuinely new states.
        let with = explore(&Scope::smoke(), Mutation::None);
        let without = explore(
            &Scope {
                max_kills: 0,
                ..Scope::smoke()
            },
            Mutation::None,
        );
        assert!(
            with.states > without.states,
            "kills added no states ({} vs {})",
            with.states,
            without.states
        );
        assert!(without.proved());
    }
}
