//! The model the checker explores: a scope (how big a world), an event
//! alphabet (what can happen), and a deterministic `apply` that drives
//! the *production* transition functions of
//! [`corun_serve::ServiceState`] — the checker proves properties of the
//! code the daemon runs, not of a hand-written abstraction.
//!
//! Events are atomic: each one performs exactly one transition plus its
//! journal appends, the way the daemon does under its state lock. Times
//! are logical and constant (`start_s = 0`, `end_s = 1`) so that
//! interleavings which reach the same configuration by different routes
//! fingerprint identically and merge in the visited set.

use apu_sim::Device;
use corun_core::{JobId, RetryPolicy};
use corun_serve::journal::Record;
use corun_serve::state::ServiceState;

/// How big a world the checker enumerates. Every bound is a *scope*
/// bound, not a sampling rate: within the scope, exploration is
/// exhaustive (unless the state budget truncates it, which is reported).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Simulated machines (each with a CPU and a GPU slot).
    pub machines: usize,
    /// Jobs clients may submit.
    pub jobs: usize,
    /// Retry budget per job before dead-lettering.
    pub max_retries: u32,
    /// Daemon kills (`kill -9` + `--recover`) per run. A kill can
    /// happen after *every* journal append — each explored event is a
    /// journal boundary.
    pub max_kills: usize,
    /// Machine crashes (evictions) per run.
    pub max_crashes: usize,
    /// Visited-state budget; hitting it truncates exploration (MC0005).
    pub max_states: usize,
    /// Also model admission rejection (accept immediately followed by
    /// reject, the daemon's cap-infeasible path).
    pub model_rejects: bool,
    /// Also model the shutdown transition (no further admissions).
    pub model_shutdown: bool,
}

impl Default for Scope {
    fn default() -> Self {
        Scope {
            machines: 2,
            jobs: 3,
            max_retries: 1,
            max_kills: 1,
            max_crashes: 1,
            max_states: 1_500_000,
            model_rejects: true,
            model_shutdown: false,
        }
    }
}

impl Scope {
    /// The CI smoke scope: small enough to finish in seconds, big enough
    /// that every transition (dispatch, complete, fail, requeue,
    /// dead-letter, crash, kill/replay, reject) fires.
    pub fn smoke() -> Self {
        Scope {
            machines: 2,
            jobs: 2,
            max_states: 400_000,
            ..Scope::default()
        }
    }

    /// The retry policy the explored daemon uses.
    pub fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            ..RetryPolicy::default()
        }
    }
}

/// One atomic thing that can happen to the service. The explorer tries
/// every enabled event in every reachable state.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A client submits the next job and admission accepts it.
    Submit,
    /// A client submits the next job and admission rejects it
    /// (cap-infeasible after profiling).
    SubmitRejected,
    /// A worker dispatches a queued job to a free device slot.
    Dispatch {
        /// The queued job being placed.
        job: JobId,
        /// Hosting machine index.
        machine: usize,
        /// Target device.
        device: Device,
    },
    /// The job running on a slot completes.
    Complete {
        /// Hosting machine index.
        machine: usize,
        /// The device whose occupant finishes.
        device: Device,
    },
    /// The job running on a slot fails (injected fault); it is requeued
    /// or dead-lettered by the retry policy.
    Fail {
        /// Hosting machine index.
        machine: usize,
        /// The device whose occupant fails.
        device: Device,
    },
    /// A machine crashes; its in-flight jobs are evicted.
    Crash {
        /// The crashing machine.
        machine: usize,
    },
    /// The daemon is killed and restarted with `--recover`: the state is
    /// rebuilt by folding the journal and recovering the result.
    Kill,
    /// The daemon begins shutdown (no further admissions).
    Shutdown,
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Submit => write!(f, "submit"),
            Event::SubmitRejected => write!(f, "submit (rejected at admission)"),
            Event::Dispatch {
                job,
                machine,
                device,
            } => write!(f, "dispatch job {job} -> machine {machine} {device:?}"),
            Event::Complete { machine, device } => {
                write!(f, "complete on machine {machine} {device:?}")
            }
            Event::Fail { machine, device } => {
                write!(f, "fail on machine {machine} {device:?}")
            }
            Event::Crash { machine } => write!(f, "crash machine {machine}"),
            Event::Kill => write!(f, "kill daemon + recover from journal"),
            Event::Shutdown => write!(f, "begin shutdown"),
        }
    }
}

/// A deliberately broken transition, for proving the checker *can*
/// find bugs (the `corun mc --smoke` CI gate) and for tests. Each
/// mutation corrupts one transition the way a real regression might,
/// and must be caught by exactly one invariant family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful transitions.
    #[default]
    None,
    /// A crash eviction "forgets" to requeue one victim: the job stays
    /// `Queued` in the table but vanishes from the queue (MC0001).
    LoseEvictedJob,
    /// Dispatch also writes the job into another machine's slot, as a
    /// double-send race would (MC0002).
    DoubleDispatch,
    /// Dead-lettering skips its journal append, so replay resurrects
    /// the job as pending (MC0003).
    SkipDeadRecord,
    /// Completion bumps the completed counter twice (MC0004).
    DoubleCountCompletion,
}

impl Mutation {
    /// Parse a CLI spelling; `None` on unknown input.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "lose-evicted" => Some(Mutation::LoseEvictedJob),
            "double-dispatch" => Some(Mutation::DoubleDispatch),
            "skip-dead-record" => Some(Mutation::SkipDeadRecord),
            "double-count-completion" => Some(Mutation::DoubleCountCompletion),
            _ => None,
        }
    }

    /// Every seedable mutation with its CLI spelling.
    pub const SEEDABLE: [(&'static str, Mutation); 4] = [
        ("lose-evicted", Mutation::LoseEvictedJob),
        ("double-dispatch", Mutation::DoubleDispatch),
        ("skip-dead-record", Mutation::SkipDeadRecord),
        ("double-count-completion", Mutation::DoubleCountCompletion),
    ];
}

/// One explored configuration: the service state, the journal that got
/// it there, and the consumed fault budgets.
#[derive(Debug, Clone)]
pub struct Node {
    /// The service state after the path's events.
    pub st: ServiceState,
    /// The journal the daemon would have written along this path.
    pub journal: Vec<Record>,
    /// `journal` folded through [`ServiceState::apply`] as each record
    /// lands, or the index of the first record the fold refused and why.
    pub folded: Result<ServiceState, (usize, String)>,
    /// Kills consumed.
    pub kills: usize,
    /// Crashes consumed.
    pub crashes: usize,
}

impl Node {
    /// The initial configuration: empty state, empty journal.
    pub fn root(scope: &Scope) -> Node {
        Node {
            st: ServiceState::new(scope.machines),
            journal: Vec::new(),
            folded: Ok(ServiceState::new(scope.machines)),
            kills: 0,
            crashes: 0,
        }
    }

    /// Journal `rec` and fold it into [`Node::folded`].
    fn log(&mut self, rec: Record) {
        if let Ok(st) = &mut self.folded {
            if let Err(e) = st.apply(&rec) {
                self.folded = Err((self.journal.len(), e));
            }
        }
        self.journal.push(rec);
    }

    /// What `--recover` restarts from after a kill: the journal's fold,
    /// [`ServiceState::recover`]ed onto `machines` fresh machines.
    pub fn recovered(&self, machines: usize) -> Result<ServiceState, (usize, String)> {
        let mut st = self.folded.clone()?;
        st.recover(machines);
        Ok(st)
    }
}

/// Every event enabled in `node`, in a deterministic order (the trace a
/// violation renders is therefore reproducible run to run).
pub fn enabled(node: &Node, scope: &Scope) -> Vec<Event> {
    let st = &node.st;
    let mut evs = Vec::new();
    if !st.shutdown && st.jobs().len() < scope.jobs {
        evs.push(Event::Submit);
        if scope.model_rejects {
            evs.push(Event::SubmitRejected);
        }
    }
    for &job in &st.queue {
        for (machine, m) in st.machines.iter().enumerate() {
            if m.down {
                continue;
            }
            for &device in &Device::ALL {
                if m.running[device.index()].is_none() {
                    evs.push(Event::Dispatch {
                        job,
                        machine,
                        device,
                    });
                }
            }
        }
    }
    for (machine, m) in st.machines.iter().enumerate() {
        for &device in &Device::ALL {
            if m.running[device.index()].is_some() {
                evs.push(Event::Complete { machine, device });
                evs.push(Event::Fail { machine, device });
            }
        }
    }
    if node.crashes < scope.max_crashes {
        for (machine, m) in st.machines.iter().enumerate() {
            if !m.down {
                evs.push(Event::Crash { machine });
            }
        }
    }
    if node.kills < scope.max_kills {
        evs.push(Event::Kill);
    }
    if scope.model_shutdown && !st.shutdown {
        evs.push(Event::Shutdown);
    }
    evs
}

/// Apply one event to a node, mutating state and journal exactly the way
/// the daemon would (modulo the seeded `mutation`). Returns `Err` with
/// the refusing transition's message if the event was not actually
/// enabled — the explorer treats that as a bug in `enabled`, not a
/// counterexample.
pub fn apply(
    node: &mut Node,
    event: &Event,
    scope: &Scope,
    retry: &RetryPolicy,
    mutation: Mutation,
) -> Result<(), String> {
    let err = |e: corun_serve::TransitionError| format!("{event}: {e}");
    match event {
        Event::Submit => {
            let n = node.st.jobs().len();
            let (_, rec) = node
                .st
                .accept(&format!("job#{n}"), "prog", 1.0)
                .map_err(err)?;
            node.log(rec);
        }
        Event::SubmitRejected => {
            let n = node.st.jobs().len();
            let (id, rec) = node
                .st
                .accept(&format!("job#{n}"), "prog", 1.0)
                .map_err(err)?;
            node.log(rec);
            let rec = node.st.reject(id).map_err(err)?;
            node.log(rec);
        }
        Event::Dispatch {
            job,
            machine,
            device,
        } => {
            let rec = node
                .st
                .dispatch(*job, *machine, *device, 0.0, 1.0)
                .map_err(err)?;
            node.log(rec);
            if mutation == Mutation::DoubleDispatch {
                // The double-send race: another machine's slot also ends
                // up pointing at the job.
                if let Some((_, m)) =
                    node.st.machines.iter_mut().enumerate().find(|(mi, m)| {
                        mi != machine && !m.down && m.running[device.index()].is_none()
                    })
                {
                    m.running[device.index()] = Some(*job);
                }
            }
        }
        Event::Complete { machine, device } => {
            let id = node.st.machines[*machine].running[device.index()]
                .ok_or_else(|| format!("{event}: slot is empty"))?;
            let rec = node.st.complete(id, 1.0).map_err(err)?;
            node.log(rec);
            if mutation == Mutation::DoubleCountCompletion {
                node.st.counters.completed += 1;
            }
        }
        Event::Fail { machine, device } => {
            let id = node.st.machines[*machine].running[device.index()]
                .ok_or_else(|| format!("{event}: slot is empty"))?;
            let fail = node
                .st
                .fail(id, retry, "injected job failure")
                .map_err(err)?;
            let skip =
                mutation == Mutation::SkipDeadRecord && matches!(fail.record, Record::Dead { .. });
            if !skip {
                node.log(fail.record);
            }
        }
        Event::Crash { machine } => {
            let (evict, reports) = node
                .st
                .crash(*machine, 0.0, retry, "machine crash")
                .map_err(err)?;
            node.log(evict);
            for r in &reports {
                node.log(r.record.clone());
            }
            node.crashes += 1;
            if mutation == Mutation::LoseEvictedJob {
                if let Some(first) = reports.first() {
                    let victim = first.job;
                    node.st.queue.retain(|&j| j != victim);
                }
            }
        }
        Event::Kill => {
            node.st = node
                .recovered(scope.machines)
                .map_err(|(k, e)| format!("{event}: journal record {k}: {e}"))?;
            node.log(Record::Recovered {
                jobs: node.st.jobs().len(),
                machines: scope.machines,
            });
            node.kills += 1;
        }
        Event::Shutdown => {
            node.st.begin_shutdown();
            node.log(Record::ShutdownBegin);
        }
    }
    Ok(())
}

/// Fingerprint the behaviorally relevant part of a node for the visited
/// set: the state itself, the state its journal recovers to
/// ([`Node::recovered`], which is all a future `Kill` can observe of it),
/// and the fault budgets.
/// Journals that differ only in record order but recover identically
/// merge.
pub fn memo_key(node: &Node, recovered: &ServiceState) -> u64 {
    let mut h = Fnv::new();
    h.u64(node.st.fingerprint());
    h.u64(recovered.fingerprint());
    h.u64(node.kills as u64);
    h.u64(node.crashes as u64);
    h.finish()
}

/// FNV-1a, 64-bit; deterministic across runs so visited-set membership
/// (and therefore traces) reproduce exactly.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}
