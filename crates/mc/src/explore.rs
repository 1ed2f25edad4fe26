//! The exhaustive bounded explorer: breadth-first search over every
//! interleaving of [`Event`]s within a [`Scope`], with visited-state
//! memoization and minimal counterexample extraction.
//!
//! BFS (rather than DFS) means the first violation found is reached by
//! the fewest possible events — the counterexample trace is minimal in
//! schedule length by construction. Memoization keys on what a node can
//! still *do* (state fingerprint + what its journal recovers to + fault
//! budgets), so interleavings that converge are explored once.
//!
//! At every visited node the explorer checks, through the same code the
//! daemon runs:
//!
//! * [`ServiceState::check_invariants`] — no job lost, no double
//!   dispatch, books balanced (MC0001/MC0002/MC0004);
//! * replay consistency (MC0003): the node's journal folds, and the
//!   fold fingerprints equal to the live state; plus journal causality.

use crate::model::{apply, enabled, memo_key, Event, Mutation, Node, Scope};
use corun_serve::journal::check_causality;
use corun_serve::state::{ServiceState, Violation, ViolationKind};
use corun_verify::{Code, Diagnostic, Report};
use std::collections::{HashSet, VecDeque};

/// A minimal event schedule that drives the service from its initial
/// state into a state violating an invariant.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The events, in order, from the initial state.
    pub events: Vec<Event>,
    /// Every invariant violated in the final state.
    pub violations: Vec<Violation>,
}

impl Counterexample {
    /// Re-execute the trace and render it step by step: each event with
    /// a digest of the state it produces, then the violations. The
    /// per-step digests are recomputed (transitions are deterministic),
    /// so the render shows exactly the states the explorer saw.
    pub fn render(&self, scope: &Scope, mutation: Mutation) -> String {
        let retry = scope.retry();
        let mut node = Node::root(scope);
        let mut out = String::new();
        out.push_str(&format!("  0. (initial) {}\n", digest(&node.st)));
        for (k, ev) in self.events.iter().enumerate() {
            match apply(&mut node, ev, scope, &retry, mutation) {
                Ok(()) => out.push_str(&format!(
                    "  {}. {ev}\n        {}\n",
                    k + 1,
                    digest(&node.st)
                )),
                Err(e) => {
                    out.push_str(&format!("  {}. {ev} — REFUSED: {e}\n", k + 1));
                    break;
                }
            }
        }
        for v in &self.violations {
            out.push_str(&format!("  violated: {v}\n"));
        }
        out
    }
}

/// One-line state digest for trace rendering.
fn digest(st: &ServiceState) -> String {
    use corun_serve::state::JobState;
    let jobs: Vec<String> = st
        .jobs()
        .iter()
        .enumerate()
        .map(|(id, j)| {
            let s = match &j.state {
                JobState::Queued => "queued".to_string(),
                JobState::Rejected => "rejected".to_string(),
                JobState::Running {
                    machine, device, ..
                } => format!("running@m{machine}/{device:?}"),
                JobState::Done { .. } => "done".to_string(),
                JobState::DeadLetter { .. } => "dead".to_string(),
            };
            format!("j{id}={s}(r{})", j.retries)
        })
        .collect();
    let machines: Vec<String> = st
        .machines
        .iter()
        .enumerate()
        .map(|(mi, m)| {
            let slot = |d: usize| match m.running[d] {
                Some(id) => format!("j{id}"),
                None => "-".to_string(),
            };
            format!(
                "m{mi}{}[{},{}]",
                if m.down { "(down)" } else { "" },
                slot(0),
                slot(1)
            )
        })
        .collect();
    format!(
        "jobs{{{}}} queue{:?} {}",
        jobs.join(" "),
        st.queue.iter().collect::<Vec<_>>(),
        machines.join(" ")
    )
}

/// What one exploration run found.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The scope that was explored.
    pub scope: Scope,
    /// The seeded mutation (usually [`Mutation::None`]).
    pub mutation: Mutation,
    /// Distinct states visited.
    pub states: usize,
    /// Events applied (edges traversed).
    pub events: usize,
    /// The longest event schedule fully explored.
    pub depth: usize,
    /// Whether the state budget truncated exploration before the scope
    /// was exhausted.
    pub truncated: bool,
    /// The minimal counterexample, if any invariant broke.
    pub counterexample: Option<Counterexample>,
}

impl Exploration {
    /// `true` when the scope was fully explored and no invariant broke.
    pub fn proved(&self) -> bool {
        self.counterexample.is_none() && !self.truncated
    }

    /// Surface the outcome as diagnostics: one MC0xx error per violated
    /// invariant kind (with the rendered minimal trace as help), and an
    /// MC0005 warning if the state budget truncated exploration.
    pub fn report(&self) -> Report {
        let mut report = Report::new();
        if let Some(cex) = &self.counterexample {
            let trace = cex.render(&self.scope, self.mutation);
            let mut kinds_seen: Vec<ViolationKind> = Vec::new();
            for v in &cex.violations {
                let first_of_kind = !kinds_seen.contains(&v.kind);
                kinds_seen.push(v.kind);
                let mut d = Diagnostic::new(
                    code_for(v.kind),
                    format!("mc: after {} event(s)", cex.events.len()),
                    v.detail.clone(),
                );
                if first_of_kind {
                    d = d.with_help(format!("minimal counterexample:\n{trace}"));
                }
                report.push(d);
            }
        }
        if self.truncated {
            report.push(Diagnostic::new(
                Code::Mc0005,
                "mc: exploration".to_string(),
                format!(
                    "state budget ({}) hit after {} state(s); the verdict covers only the visited part of the scope",
                    self.scope.max_states, self.states
                ),
            ).with_help("raise --max-states or shrink the scope for an exhaustive verdict".to_string()));
        }
        report
    }

    /// Human summary line for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "{} state(s), {} event(s), depth {} — {}",
            self.states,
            self.events,
            self.depth,
            if self.counterexample.is_some() {
                "counterexample found"
            } else if self.truncated {
                "no violation in the visited part (truncated)"
            } else {
                "all invariants proved at this scope"
            }
        )
    }
}

/// The stable diagnostic code for each violated invariant family.
pub fn code_for(kind: ViolationKind) -> Code {
    match kind {
        ViolationKind::JobLost => Code::Mc0001,
        ViolationKind::DoubleDispatch => Code::Mc0002,
        ViolationKind::ReplayMismatch => Code::Mc0003,
        ViolationKind::BooksImbalance => Code::Mc0004,
    }
}

/// Exhaustively explore `scope` under `mutation`, stopping at the first
/// violation (whose trace is minimal, by BFS) or when the scope — or
/// the state budget — is exhausted.
pub fn explore(scope: &Scope, mutation: Mutation) -> Exploration {
    let retry = scope.retry();
    let root = Node::root(scope);

    // Parent pointers for trace reconstruction: one entry per *edge*
    // taken, holding (parent edge index, event). Roots hold `None`.
    let mut parents: Vec<Option<(usize, Event)>> = vec![None];
    let mut frontier: VecDeque<(Node, usize, usize)> = VecDeque::new(); // (node, edge idx, depth)
    let mut seen: HashSet<u64> = HashSet::new();
    // An empty journal recovers to the empty root state itself.
    seen.insert(memo_key(&root, &root.st));
    frontier.push_back((root, 0, 0));

    let mut states = 1usize;
    let mut events_applied = 0usize;
    let mut max_depth = 0usize;
    let mut truncated = false;

    while let Some((node, idx, depth)) = frontier.pop_front() {
        max_depth = max_depth.max(depth);
        for ev in enabled(&node, scope) {
            let mut next = node.clone();
            if let Err(e) = apply(&mut next, &ev, scope, &retry, mutation) {
                // `enabled` said this event was possible; the transition
                // disagreed. That is a checker bug, not a model bug —
                // surface it loudly rather than mis-reporting.
                panic!("enabled event refused: {e}");
            }
            events_applied += 1;
            let edge = parents.len();
            parents.push(Some((idx, ev.clone())));

            let mut violations = next.st.check_invariants();
            violations.extend(replay_mismatch(&next.st, &next.folded));
            let causality = check_causality(&next.journal);
            if causality.has_errors() {
                violations.extend(causality.errors().map(|d| Violation {
                    kind: ViolationKind::ReplayMismatch,
                    detail: format!("journal causality: {} ({})", d.message, d.location),
                }));
            }
            if !violations.is_empty() {
                return Exploration {
                    scope: scope.clone(),
                    mutation,
                    states,
                    events: events_applied,
                    depth: depth + 1,
                    truncated,
                    counterexample: Some(Counterexample {
                        events: trace_to(&parents, edge),
                        violations,
                    }),
                };
            }

            let recovered = next
                .recovered(scope.machines)
                .expect("a journal that does not fold is a violation");
            if seen.insert(memo_key(&next, &recovered)) {
                if states < scope.max_states {
                    states += 1;
                    frontier.push_back((next, edge, depth + 1));
                } else {
                    truncated = true;
                }
            }
        }
    }

    Exploration {
        scope: scope.clone(),
        mutation,
        states,
        events: events_applied,
        depth: max_depth,
        truncated,
        counterexample: None,
    }
}

/// The journal must replay to the live state: it folds, and the fold
/// fingerprints equal to the live state.
fn replay_mismatch(
    live: &ServiceState,
    folded: &Result<ServiceState, (usize, String)>,
) -> Option<Violation> {
    let detail = match folded {
        Err((k, e)) => format!("journal record {k} does not fold: {e}"),
        Ok(fold) if fold.fingerprint() == live.fingerprint() => return None,
        Ok(fold) => {
            let (live_jobs, fold_jobs) = (live.jobs(), fold.jobs());
            match live_jobs.iter().zip(fold_jobs).position(|(a, b)| a != b) {
                Some(id) => format!(
                    "job {id} is {:?} live but {:?} in the journal's fold",
                    live_jobs[id].state, fold_jobs[id].state
                ),
                None if live_jobs.len() != fold_jobs.len() => format!(
                    "the live state holds {} job(s) but the journal's fold {}",
                    live_jobs.len(),
                    fold_jobs.len()
                ),
                None => "the journal's fold agrees with the live state on every job but not on its queue, slots or counters".to_string(),
            }
        }
    };
    Some(Violation {
        kind: ViolationKind::ReplayMismatch,
        detail,
    })
}

/// Walk parent pointers from an edge back to the root; the events in
/// forward order form the counterexample schedule.
fn trace_to(parents: &[Option<(usize, Event)>], mut edge: usize) -> Vec<Event> {
    let mut events = Vec::new();
    while let Some((parent, ev)) = &parents[edge] {
        events.push(ev.clone());
        edge = *parent;
    }
    events.reverse();
    events
}
