//! Pure job-routing bookkeeping for the coordinator.
//!
//! The [`Router`] owns the *coordinator-side* life of every fleet job:
//!
//! ```text
//! admit -> Backlog(shard) -> begin_submit -> Submitting(shard)
//!            ^     |                            |       |      \
//!            |   steal                       confirm  abort   mark_in_doubt
//!            |     v                            v       |         v
//!            +-- Backlog(other)          Submitted{...} <+    InDoubt(shard)
//!            |                                  |            /          \
//!            +------- requeue_lost -------------+  resolve_confirm  resolve_reject
//!                                               |        v                v
//!                                               +--> Done / DeadLetter / Rejected
//! ```
//!
//! Double dispatch is impossible *by construction*: a job reaches a
//! shard only through `begin_submit` -> `confirm`, both of which demand
//! the exact predecessor state, and work stealing moves only `Backlog`
//! jobs — never anything a shard has already seen. `requeue_lost` is the
//! single edge back from `Submitted`, and the coordinator takes it only
//! once the owning shard incarnation is confirmed dead (crashed without
//! a journal, or reporting the id `unknown` after an unrecovered restart).
//!
//! `InDoubt` is the partition-tolerance edge: a submission whose RPC
//! failed *after* the request may have been delivered
//! ([`crate::net::NetError`] timeout, disconnect, garbled reply) is
//! neither confirmed nor safe to re-place — the shard may be running it.
//! An in-doubt job is pinned to its shard (never stolen, never
//! evacuated, in no backlog) until the coordinator re-submits its
//! idempotent key to that same shard: the shard's keyed dedup then
//! either returns the original id (`resolve_confirm`) or refuses it
//! (`resolve_reject`). The placement proptests drive exactly this type.

use crate::placement::{Placement, ShardView};
use std::collections::{BTreeSet, VecDeque};

/// Coordinator-global job id (dense, `0..jobs()`).
pub type FleetJobId = usize;

/// Where one fleet job currently is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobLoc {
    /// Waiting in the coordinator's backlog for `shard`.
    Backlog(usize),
    /// Popped for submission to `shard`; must `confirm`, `abort`, or
    /// `mark_in_doubt`.
    Submitting(usize),
    /// A submit RPC to `shard` failed after the request may have been
    /// delivered. Pinned there until keyed resubmission resolves it.
    InDoubt(usize),
    /// Accepted by `shard` under its local id.
    Submitted {
        /// The owning shard.
        shard: usize,
        /// The shard-local job id.
        local_id: usize,
    },
    /// Finished on `shard`.
    Done(usize),
    /// Dead-lettered on `shard` (retry budget exhausted there).
    DeadLetter(usize),
    /// Rejected outright (lint / infeasible); terminal.
    Rejected,
}

/// One fleet job.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Placement key (hashed onto the ring).
    pub key: String,
    /// The single-line workload spec submitted to the owning shard.
    pub spec: String,
    /// Current location.
    pub loc: JobLoc,
    /// Times a shard accepted this job (for the books: lost incarnations
    /// included).
    pub submits: u32,
    /// Times the coordinator took the `requeue_lost` edge.
    pub requeues: u32,
}

/// One work-stealing transfer, for metrics/logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steal {
    /// Shard the jobs left.
    pub from: usize,
    /// Shard the jobs joined.
    pub to: usize,
    /// How many moved.
    pub moved: usize,
}

/// The router: placement + per-shard backlogs + the job table.
pub struct Router {
    placement: Box<dyn Placement>,
    jobs: Vec<FleetJob>,
    backlogs: Vec<VecDeque<FleetJobId>>,
    /// The `InDoubt` jobs of each shard, so a round finds them in
    /// O(in doubt) rather than by scanning every job ever admitted.
    in_doubt: Vec<BTreeSet<FleetJobId>>,
}

impl Router {
    /// A router over `shards` shards using `placement`.
    pub fn new(shards: usize, placement: Box<dyn Placement>) -> Router {
        Router {
            placement,
            jobs: Vec::new(),
            backlogs: vec![VecDeque::new(); shards],
            in_doubt: vec![BTreeSet::new(); shards],
        }
    }

    /// Rebuild a router from recovered books (`corun fleet --recover`).
    /// Jobs arriving as `Backlog` or `Submitting` are re-placed against
    /// `view` and parked in a backlog — a `Submitting` job can only be
    /// restored by a caller that knows the RPC never left (otherwise it
    /// must arrive as `InDoubt`). All other states are taken verbatim.
    pub fn restore(
        shards: usize,
        placement: Box<dyn Placement>,
        jobs: Vec<FleetJob>,
        view: &ShardView,
    ) -> Router {
        let mut r = Router {
            placement,
            jobs: Vec::with_capacity(jobs.len()),
            backlogs: vec![VecDeque::new(); shards],
            in_doubt: vec![BTreeSet::new(); shards],
        };
        for mut job in jobs {
            let id = r.jobs.len();
            match job.loc {
                JobLoc::Backlog(old) | JobLoc::Submitting(old) => {
                    let dest = r.placement.place(&job.key, view).unwrap_or(old);
                    job.loc = JobLoc::Backlog(dest);
                    r.backlogs[dest].push_back(id);
                }
                JobLoc::InDoubt(shard) => {
                    r.in_doubt[shard].insert(id);
                }
                _ => {}
            }
            r.jobs.push(job);
        }
        r
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.backlogs.len()
    }

    /// Total jobs ever admitted.
    pub fn jobs(&self) -> usize {
        self.jobs.len()
    }

    /// The job table entry (valid for every id this router returned).
    pub fn job(&self, id: FleetJobId) -> &FleetJob {
        &self.jobs[id]
    }

    /// Backlog depth of one shard.
    pub fn backlog_depth(&self, shard: usize) -> usize {
        self.backlogs[shard].len()
    }

    /// Count of jobs in a terminal state (done, dead-letter, rejected).
    pub fn terminal(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.loc,
                    JobLoc::Done(_) | JobLoc::DeadLetter(_) | JobLoc::Rejected
                )
            })
            .count()
    }

    /// Admit one job: place it by key against `view` and queue it in the
    /// chosen shard's backlog. Returns the fleet id, or `Err` when no
    /// shard is live.
    pub fn admit(
        &mut self,
        key: String,
        spec: String,
        view: &ShardView,
    ) -> Result<FleetJobId, (String, String)> {
        match self.placement.place(&key, view) {
            Some(shard) => {
                let id = self.jobs.len();
                self.jobs.push(FleetJob {
                    key,
                    spec,
                    loc: JobLoc::Backlog(shard),
                    submits: 0,
                    requeues: 0,
                });
                self.backlogs[shard].push_back(id);
                Ok(id)
            }
            None => Err((key, spec)),
        }
    }

    /// Pop the next backlog job for `shard` and mark it `Submitting`.
    /// The caller must follow with [`Router::confirm`] or
    /// [`Router::abort`].
    pub fn begin_submit(&mut self, shard: usize) -> Option<FleetJobId> {
        let id = self.backlogs[shard].pop_front()?;
        debug_assert_eq!(self.jobs[id].loc, JobLoc::Backlog(shard));
        self.jobs[id].loc = JobLoc::Submitting(shard);
        Some(id)
    }

    /// The shard accepted the job under `local_id`.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitting` — the one edge into
    /// `Submitted`, which is what makes double dispatch unrepresentable.
    pub fn confirm(&mut self, id: FleetJobId, local_id: usize) {
        let job = &mut self.jobs[id];
        let JobLoc::Submitting(shard) = job.loc else {
            panic!(
                "confirm({id}) from {:?}: job was never popped for submission",
                job.loc
            );
        };
        job.loc = JobLoc::Submitted { shard, local_id };
        job.submits += 1;
    }

    /// The submission did not happen (backpressure, connection refused):
    /// push the job back to the *front* of its shard's backlog.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitting`.
    pub fn abort(&mut self, id: FleetJobId) {
        let job = &mut self.jobs[id];
        let JobLoc::Submitting(shard) = job.loc else {
            panic!(
                "abort({id}) from {:?}: job was never popped for submission",
                job.loc
            );
        };
        job.loc = JobLoc::Backlog(shard);
        self.backlogs[shard].push_front(id);
    }

    /// The submission was refused permanently (lint, cap-infeasible):
    /// terminal, never re-routed.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitting`.
    pub fn reject(&mut self, id: FleetJobId) {
        let job = &mut self.jobs[id];
        assert!(
            matches!(job.loc, JobLoc::Submitting(_)),
            "reject({id}) from {:?}",
            job.loc
        );
        job.loc = JobLoc::Rejected;
    }

    /// The submit RPC failed after the request may have been delivered
    /// (reply lost in a partition, timeout, truncated frame): neither
    /// confirmed nor safe to re-place. The job leaves the submission
    /// path but stays pinned to its shard for keyed resolution.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitting`.
    pub fn mark_in_doubt(&mut self, id: FleetJobId) {
        let job = &mut self.jobs[id];
        let JobLoc::Submitting(shard) = job.loc else {
            panic!(
                "mark_in_doubt({id}) from {:?}: job was never popped for submission",
                job.loc
            );
        };
        job.loc = JobLoc::InDoubt(shard);
        self.in_doubt[shard].insert(id);
    }

    /// Keyed resubmission to the pinned shard came back accepted: the
    /// shard either had the job already (dedup hit — the original RPC
    /// landed) or admitted it now. Either way exactly one copy exists,
    /// under `local_id`.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `InDoubt`.
    pub fn resolve_confirm(&mut self, id: FleetJobId, local_id: usize) {
        let job = &mut self.jobs[id];
        let JobLoc::InDoubt(shard) = job.loc else {
            panic!(
                "resolve_confirm({id}) from {:?}: job is not in doubt",
                job.loc
            );
        };
        job.loc = JobLoc::Submitted { shard, local_id };
        job.submits += 1;
        self.in_doubt[shard].remove(&id);
    }

    /// Keyed resubmission was permanently refused, so the original RPC
    /// cannot have admitted it either (the shard's dedup would have
    /// answered with the existing id): terminal.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `InDoubt`.
    pub fn resolve_reject(&mut self, id: FleetJobId) {
        let job = &mut self.jobs[id];
        let JobLoc::InDoubt(shard) = job.loc else {
            panic!("resolve_reject({id}) from {:?}", job.loc);
        };
        job.loc = JobLoc::Rejected;
        self.in_doubt[shard].remove(&id);
    }

    /// Jobs currently in doubt on `shard`, in id order.
    pub fn in_doubt(&self, shard: usize) -> Vec<FleetJobId> {
        self.in_doubt[shard].iter().copied().collect()
    }

    /// The owning shard reported the job done.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitted` on `shard`.
    pub fn complete(&mut self, id: FleetJobId, shard: usize) {
        let job = &mut self.jobs[id];
        assert!(
            matches!(job.loc, JobLoc::Submitted { shard: s, .. } if s == shard),
            "complete({id}) from {:?} via shard {shard}",
            job.loc
        );
        job.loc = JobLoc::Done(shard);
    }

    /// The owning shard dead-lettered the job (its retry budget is
    /// spent); terminal at fleet level too, so a poisonous job cannot
    /// cycle through every shard.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitted` on `shard`.
    pub fn dead_letter(&mut self, id: FleetJobId, shard: usize) {
        let job = &mut self.jobs[id];
        assert!(
            matches!(job.loc, JobLoc::Submitted { shard: s, .. } if s == shard),
            "dead_letter({id}) from {:?} via shard {shard}",
            job.loc
        );
        job.loc = JobLoc::DeadLetter(shard);
    }

    /// The owning shard incarnation is confirmed gone (crash without
    /// journal, or an `unknown` id after an unrecovered restart): route the
    /// job again. Placement may pick any live shard.
    ///
    /// # Panics
    ///
    /// Panics unless the job is `Submitted` — the only state a job can be
    /// *lost* from.
    pub fn requeue_lost(&mut self, id: FleetJobId, view: &ShardView) {
        let job = &mut self.jobs[id];
        let JobLoc::Submitted { shard, .. } = job.loc else {
            panic!("requeue_lost({id}) from {:?}", job.loc);
        };
        // Prefer re-placement; a fully dead fleet parks the job on its
        // old shard's backlog until something recovers.
        let dest = self.placement.place(&job.key, view).unwrap_or(shard);
        job.loc = JobLoc::Backlog(dest);
        job.requeues += 1;
        self.backlogs[dest].push_back(id);
    }

    /// Move up to `batch` jobs from the *back* of `from`'s backlog to
    /// `to`'s backlog. Only backlog jobs move — a job a shard has
    /// already accepted is never stolen.
    pub fn steal(&mut self, from: usize, to: usize, batch: usize) -> usize {
        if from == to {
            return 0;
        }
        let mut moved = 0;
        while moved < batch {
            let Some(id) = self.backlogs[from].pop_back() else {
                break;
            };
            debug_assert_eq!(self.jobs[id].loc, JobLoc::Backlog(from));
            self.jobs[id].loc = JobLoc::Backlog(to);
            self.backlogs[to].push_back(id);
            moved += 1;
        }
        moved
    }

    /// One automatic work-stealing round: while the spread between the
    /// most and least loaded *live* shards (backlog + observed remote
    /// depth from `view`) exceeds `threshold`, move up to `batch` backlog
    /// jobs from the deepest to the shallowest. Returns the transfers.
    pub fn auto_steal(&mut self, view: &ShardView, threshold: usize, batch: usize) -> Vec<Steal> {
        let mut steals = Vec::new();
        // Bounded passes: each pass strictly reduces the spread, but cap
        // the rounds so a degenerate threshold cannot spin.
        for _ in 0..self.shards() {
            let loaded = |s: usize| self.backlogs[s].len() + view.load.get(s).copied().unwrap_or(0);
            let live = (0..self.shards()).filter(|&s| view.alive[s]);
            let Some(max_s) = live.clone().max_by_key(|&s| (loaded(s), s)) else {
                break;
            };
            let Some(min_s) = live.min_by_key(|&s| (loaded(s), s)) else {
                break;
            };
            if loaded(max_s) - loaded(min_s) <= threshold {
                break;
            }
            // Move at most half the gap so the pair cannot flip-flop.
            let want = ((loaded(max_s) - loaded(min_s)) / 2).min(batch).max(1);
            let moved = self.steal(max_s, min_s, want);
            if moved == 0 {
                break; // deepest shard's load is all remote; nothing to move
            }
            steals.push(Steal {
                from: max_s,
                to: min_s,
                moved,
            });
        }
        steals
    }

    /// Every job currently backlogged on `shard` (used when a shard dies:
    /// the coordinator re-places them by draining + re-admitting through
    /// steals to live shards).
    pub fn evacuate_backlog(&mut self, shard: usize, view: &ShardView) -> usize {
        let ids: Vec<FleetJobId> = self.backlogs[shard].drain(..).collect();
        let mut moved = 0;
        for id in ids {
            debug_assert_eq!(self.jobs[id].loc, JobLoc::Backlog(shard));
            let dest = self
                .placement
                .place(&self.jobs[id].key, view)
                .unwrap_or(shard);
            self.jobs[id].loc = JobLoc::Backlog(dest);
            self.backlogs[dest].push_back(id);
            if dest != shard {
                moved += 1;
            }
        }
        moved
    }

    /// Internal consistency: every backlog entry is a `Backlog` job on
    /// that shard, every `Backlog` job is in exactly one backlog, each
    /// shard's in-doubt set holds exactly its `InDoubt` jobs, and submit
    /// counts match requeues (`submits <= requeues + 1`).
    ///
    /// # Panics
    ///
    /// Panics when the books don't balance; the chaos tests call this
    /// after every pump round.
    pub fn check_books(&self) {
        let mut backlogged = vec![0usize; self.jobs.len()];
        for (shard, q) in self.backlogs.iter().enumerate() {
            for &id in q {
                assert_eq!(
                    self.jobs[id].loc,
                    JobLoc::Backlog(shard),
                    "backlog of shard {shard} holds job {id} in state {:?}",
                    self.jobs[id].loc
                );
                backlogged[id] += 1;
            }
        }
        for (id, job) in self.jobs.iter().enumerate() {
            let expect = usize::from(matches!(job.loc, JobLoc::Backlog(_)));
            assert_eq!(
                backlogged[id], expect,
                "job {id} in {:?} appears {} time(s) in backlogs",
                job.loc, backlogged[id]
            );
            assert!(
                job.submits <= job.requeues + 1,
                "job {id} accepted {} times but requeued only {} times",
                job.submits,
                job.requeues
            );
            // An in-doubt job is pinned: stealing/evacuation must never
            // have touched it (it is in no backlog, checked above via
            // expect == 0), and its shard index must be a real shard.
            if let JobLoc::InDoubt(shard) = job.loc {
                assert!(
                    shard < self.backlogs.len(),
                    "job {id} in doubt on nonexistent shard {shard}"
                );
            }
        }
        // The per-shard in-doubt sets are exactly what a full scan finds.
        for (shard, set) in self.in_doubt.iter().enumerate() {
            let scanned: BTreeSet<FleetJobId> = (0..self.jobs.len())
                .filter(|&id| self.jobs[id].loc == JobLoc::InDoubt(shard))
                .collect();
            assert_eq!(
                *set, scanned,
                "shard {shard}'s in-doubt set disagrees with the job table"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::HashRing;

    fn router(shards: usize) -> Router {
        Router::new(shards, Box::new(HashRing::new(shards)))
    }

    #[test]
    fn admit_submit_complete_roundtrip() {
        let mut r = router(2);
        let view = ShardView::fresh(2);
        let id = r.admit("k0".into(), "lud x0.1".into(), &view).unwrap();
        let JobLoc::Backlog(shard) = r.job(id).loc else {
            panic!()
        };
        assert_eq!(r.begin_submit(shard), Some(id));
        r.confirm(id, 7);
        assert_eq!(r.job(id).loc, JobLoc::Submitted { shard, local_id: 7 });
        r.complete(id, shard);
        assert_eq!(r.terminal(), 1);
        r.check_books();
    }

    #[test]
    fn abort_returns_to_front() {
        let mut r = router(1);
        let view = ShardView::fresh(1);
        let a = r.admit("a".into(), "s".into(), &view).unwrap();
        let b = r.admit("b".into(), "s".into(), &view).unwrap();
        assert_eq!(r.begin_submit(0), Some(a));
        r.abort(a);
        // a went back to the front, ahead of b.
        assert_eq!(r.begin_submit(0), Some(a));
        r.confirm(a, 0);
        assert_eq!(r.begin_submit(0), Some(b));
        r.check_books();
    }

    #[test]
    fn steal_moves_only_backlog() {
        let mut r = router(2);
        let mut view = ShardView::fresh(2);
        // Pin everything to shard 0 via least-loaded-style manual admits:
        // place with shard 1 dead so the ring falls back to 0.
        view.alive[1] = false;
        for i in 0..6 {
            r.admit(format!("k{i}"), "s".into(), &view).unwrap();
        }
        view.alive[1] = true;
        // Submit one job to shard 0; it must never move.
        let submitted = r.begin_submit(0).unwrap();
        r.confirm(submitted, 0);
        let steals = r.auto_steal(&view, 1, 16);
        assert!(!steals.is_empty());
        let moved: usize = steals.iter().map(|s| s.moved).sum();
        assert!(moved >= 2);
        assert!(matches!(
            r.job(submitted).loc,
            JobLoc::Submitted { shard: 0, .. }
        ));
        r.check_books();
        // Spread is now within threshold.
        assert!(r.backlog_depth(0).abs_diff(r.backlog_depth(1)) <= 1);
    }

    #[test]
    fn requeue_lost_reroutes_to_live_shard() {
        let mut r = router(2);
        let mut view = ShardView::fresh(2);
        view.alive[1] = false;
        let id = r.admit("k".into(), "s".into(), &view).unwrap();
        assert_eq!(r.begin_submit(0), Some(id));
        r.confirm(id, 0);
        // Shard 0 dies; 1 recovers.
        view.alive[0] = false;
        view.alive[1] = true;
        r.requeue_lost(id, &view);
        assert_eq!(r.job(id).loc, JobLoc::Backlog(1));
        assert_eq!(r.job(id).requeues, 1);
        r.check_books();
    }

    #[test]
    #[should_panic(expected = "confirm")]
    fn confirm_without_begin_submit_panics() {
        let mut r = router(1);
        let view = ShardView::fresh(1);
        let id = r.admit("k".into(), "s".into(), &view).unwrap();
        r.confirm(id, 0); // still Backlog: the edge is illegal
    }

    #[test]
    fn in_doubt_is_pinned_and_resolves_without_double_dispatch() {
        let mut r = router(2);
        let mut view = ShardView::fresh(2);
        view.alive[1] = false; // pin placement to shard 0
        let id = r.admit("k".into(), "s".into(), &view).unwrap();
        view.alive[1] = true;
        assert_eq!(r.begin_submit(0), Some(id));
        r.mark_in_doubt(id);
        assert_eq!(r.job(id).loc, JobLoc::InDoubt(0));
        assert_eq!(r.in_doubt(0), vec![id]);
        assert!(r.in_doubt(1).is_empty());
        // Stealing and evacuation must not move an in-doubt job.
        assert!(r.auto_steal(&view, 0, 16).is_empty());
        assert_eq!(r.evacuate_backlog(0, &view), 0);
        assert_eq!(r.job(id).loc, JobLoc::InDoubt(0));
        r.check_books();
        // Keyed resolution lands it exactly once.
        r.resolve_confirm(id, 42);
        assert_eq!(
            r.job(id).loc,
            JobLoc::Submitted {
                shard: 0,
                local_id: 42
            }
        );
        assert_eq!(r.job(id).submits, 1);
        r.check_books();
    }

    #[test]
    fn in_doubt_can_resolve_to_rejected() {
        let mut r = router(1);
        let view = ShardView::fresh(1);
        let id = r.admit("k".into(), "s".into(), &view).unwrap();
        assert_eq!(r.begin_submit(0), Some(id));
        r.mark_in_doubt(id);
        r.resolve_reject(id);
        assert_eq!(r.job(id).loc, JobLoc::Rejected);
        assert_eq!(r.terminal(), 1);
        r.check_books();
    }

    #[test]
    #[should_panic(expected = "resolve_confirm")]
    fn resolve_confirm_requires_in_doubt() {
        let mut r = router(1);
        let view = ShardView::fresh(1);
        let id = r.admit("k".into(), "s".into(), &view).unwrap();
        r.resolve_confirm(id, 0); // still Backlog: the edge is illegal
    }

    #[test]
    fn restore_reseats_backlog_and_keeps_pinned_states() {
        let jobs = vec![
            FleetJob {
                key: "a".into(),
                spec: "s".into(),
                loc: JobLoc::Backlog(1),
                submits: 0,
                requeues: 0,
            },
            FleetJob {
                key: "b".into(),
                spec: "s".into(),
                loc: JobLoc::InDoubt(1),
                submits: 0,
                requeues: 0,
            },
            FleetJob {
                key: "c".into(),
                spec: "s".into(),
                loc: JobLoc::Submitted {
                    shard: 0,
                    local_id: 3,
                },
                submits: 1,
                requeues: 0,
            },
            FleetJob {
                key: "d".into(),
                spec: "s".into(),
                loc: JobLoc::Done(0),
                submits: 1,
                requeues: 0,
            },
        ];
        let view = ShardView::fresh(2);
        let r = Router::restore(2, Box::new(HashRing::new(2)), jobs, &view);
        assert!(matches!(r.job(0).loc, JobLoc::Backlog(_)));
        assert_eq!(r.backlog_depth(0) + r.backlog_depth(1), 1);
        assert_eq!(r.job(1).loc, JobLoc::InDoubt(1), "in-doubt stays pinned");
        assert_eq!(
            r.job(2).loc,
            JobLoc::Submitted {
                shard: 0,
                local_id: 3
            }
        );
        assert_eq!(r.job(3).loc, JobLoc::Done(0));
        assert_eq!(r.terminal(), 1);
        r.check_books();
    }
}
