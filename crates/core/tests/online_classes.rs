//! `OnlinePolicy` over job classes: given a model's class map, the policy
//! categorizes once per class and evaluates one ready job per class, and
//! must pick exactly what it picks when every job is its own class.

use apu_sim::Device;
use corun_core::{
    best_level_against, best_solo_run, CoRunModel, HcsConfig, JobId, OnlinePick, OnlinePolicy,
    TableModel,
};
use proptest::prelude::*;

/// Jobs drawn from a few programs: job `i` runs program `of[i]` of `base`.
struct Classed {
    base: TableModel,
    of: Vec<usize>,
    /// Class per job: its program's rank in order of first appearance.
    class: Vec<usize>,
}

impl Classed {
    fn new(base: TableModel, of: Vec<usize>) -> Self {
        let mut rank: Vec<Option<usize>> = vec![None; base.len()];
        let mut classes = 0;
        let class = of
            .iter()
            .map(|&p| {
                *rank[p].get_or_insert_with(|| {
                    classes += 1;
                    classes - 1
                })
            })
            .collect();
        Classed { base, of, class }
    }
}

impl CoRunModel for Classed {
    fn len(&self) -> usize {
        self.of.len()
    }
    fn name(&self, i: JobId) -> &str {
        self.base.name(self.of[i])
    }
    fn class(&self, i: JobId) -> usize {
        self.class[i]
    }
    fn levels(&self, device: Device) -> usize {
        self.base.levels(device)
    }
    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.base.standalone(self.of[i], device, f)
    }
    fn degradation(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64 {
        self.base
            .degradation(self.of[i], device, f_own, self.of[j], g_other)
    }
    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.base.solo_power(self.of[i], device, f)
    }
    fn idle_power(&self) -> f64 {
        self.base.idle_power()
    }
}

/// The same model with every job in a class of its own.
struct PerJob<'a>(&'a Classed);

impl CoRunModel for PerJob<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self, i: JobId) -> &str {
        self.0.name(i)
    }
    fn levels(&self, device: Device) -> usize {
        self.0.levels(device)
    }
    fn standalone(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.0.standalone(i, device, f)
    }
    fn degradation(&self, i: JobId, device: Device, f_own: usize, j: JobId, g_other: usize) -> f64 {
        self.0.degradation(i, device, f_own, j, g_other)
    }
    fn solo_power(&self, i: JobId, device: Device, f: usize) -> f64 {
        self.0.solo_power(i, device, f)
    }
    fn idle_power(&self) -> f64 {
        self.0.idle_power()
    }
}

/// xorshift64 stream in `[0, 1)`.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1_000_000) as f64 / 1_000_000.0
    }
}

/// `programs` random programs on 4 CPU and 3 GPU levels, with device
/// preferences from strong to none, and `jobs` jobs drawn from them, the
/// first programs more often, so classes repeat.
fn workload(seed: u64, programs: usize, jobs: usize) -> Classed {
    let mut next = stream(seed);
    let (kc, kg) = (4, 3);
    let times: Vec<(f64, f64)> = (0..programs)
        .map(|_| (5.0 + 50.0 * next(), 5.0 + 50.0 * next()))
        .collect();
    let degs: Vec<f64> = (0..2 * programs * programs * kc * kg)
        .map(|_| 0.9 * next())
        .collect();
    let watts: Vec<(f64, f64)> = (0..programs)
        .map(|_| (1.0 + 3.0 * next(), 1.0 + 3.0 * next()))
        .collect();
    let base = TableModel::build(
        (0..programs).map(|p| format!("p{p}")).collect(),
        kc,
        kg,
        4.0,
        move |i, d, f| {
            let (tc, tg) = times[i];
            match d {
                Device::Cpu => tc / (0.4 + 0.2 * f as f64),
                Device::Gpu => tg / (0.4 + 0.3 * f as f64),
            }
        },
        move |i, d, f, j, g| {
            let side = match d {
                Device::Cpu => 0,
                Device::Gpu => 1,
            };
            let (own, other) = match d {
                Device::Cpu => (f, g),
                Device::Gpu => (g, f),
            };
            degs[(((side * programs + i) * programs + j) * kc + own) * kg + other]
        },
        move |i, d, f| {
            let (wc, wg) = watts[i];
            4.0 + match d {
                Device::Cpu => wc * (f + 1) as f64,
                Device::Gpu => wg * (f + 1) as f64,
            }
        },
    );
    let of = (0..jobs)
        .map(|_| {
            let u = next();
            ((u * u * programs as f64) as usize).min(programs - 1)
        })
        .collect();
    Classed::new(base, of)
}

/// A cap `t` of the way from below the cheapest solo run (nothing fits)
/// to above the dearest pair (everything fits).
fn cap_at(m: &Classed, t: f64) -> f64 {
    let (kc, kg) = (m.levels(Device::Cpu), m.levels(Device::Gpu));
    let mut lo = f64::INFINITY;
    let mut hi: f64 = 0.0;
    for i in 0..m.len() {
        lo = lo.min(
            m.solo_power(i, Device::Cpu, 0)
                .min(m.solo_power(i, Device::Gpu, 0)),
        );
        for j in 0..m.len() {
            hi = hi.max(m.corun_power(Some((i, kc - 1)), Some((j, kg - 1))));
        }
    }
    0.95 * lo + t * (1.1 * hi - 0.95 * lo)
}

/// A ready set: `len` of the jobs in a seeded order.
fn ready_set(seed: u64, jobs: usize, len: usize) -> Vec<JobId> {
    let mut next = stream(seed ^ 0x5DEE_CE66);
    let mut order: Vec<JobId> = (0..jobs).collect();
    for k in (1..order.len()).rev() {
        order.swap(k, (next() * (k + 1) as f64) as usize);
    }
    order.truncate(len.min(jobs));
    order
}

/// What each policy picks for every device and co-runner, keyed by the
/// situation, plus whether the situation had a feasible candidate.
type Decision = (Device, Option<(JobId, usize)>, Option<OnlinePick>, bool);

fn decisions(
    model: &dyn CoRunModel,
    policy: &OnlinePolicy,
    ready: &[JobId],
    co_job: JobId,
) -> Vec<Decision> {
    let cap = policy.cap_w();
    let mut out = Vec::new();
    for device in Device::ALL {
        let top = model.levels(device.other()) - 1;
        for co in [None, Some((co_job, 0)), Some((co_job, top))] {
            let feasible = ready.iter().any(|&j| match co {
                None => best_solo_run(model, j, device, cap).is_some(),
                Some((c, l)) => best_level_against(model, j, device, c, l, cap).is_some(),
            });
            out.push((device, co, policy.pick(model, ready, device, co), feasible));
        }
    }
    out
}

/// Both policies at cap `t0`, then both re-capped to `t1`: the decisions
/// of each, class-aware first. A re-capped policy holds the preferences a
/// policy built at the new cap would.
fn both(
    seed: u64,
    programs: usize,
    jobs: usize,
    len: usize,
    t0: f64,
    t1: f64,
) -> [Vec<Decision>; 2] {
    let classed = workload(seed, programs, jobs);
    let per_job = PerJob(&classed);
    let ready = ready_set(seed, jobs, len);
    let co_job = (seed as usize) % jobs;
    let models: [&dyn CoRunModel; 2] = [&classed, &per_job];
    models.map(|model| {
        let mut policy = OnlinePolicy::new(model, HcsConfig::with_cap(cap_at(&classed, t0)));
        let mut out = decisions(model, &policy, &ready, co_job);
        let cap = HcsConfig::with_cap(cap_at(&classed, t1));
        policy.set_cap_w(model, cap.cap_w);
        let fresh = OnlinePolicy::new(model, cap);
        assert_eq!(policy.preferences(), fresh.preferences());
        out.extend(decisions(model, &policy, &ready, co_job));
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn class_aware_pick_equals_per_job_pick(
        seed in any::<u64>(),
        programs in 1usize..6,
        jobs in 1usize..40,
        len in 0usize..40,
        t0 in 0.0f64..1.0,
        t1 in 0.0f64..1.0,
    ) {
        let [classed, per_job] = both(seed, programs, jobs, len, t0, t1);
        prop_assert_eq!(classed, per_job);
    }
}

/// The generator above reaches every outcome of `pick`: a job, `None`
/// with nothing feasible, and `None` with a feasible candidate, which
/// only the steal guard returns. And it does with classes repeating.
#[test]
fn the_generator_reaches_every_pick_outcome() {
    let (mut picked, mut infeasible, mut guarded) = (0, 0, 0);
    for seed in 0..200u64 {
        let t = (seed % 10) as f64 / 9.0;
        let len = 1 + seed as usize % 8;
        let [classed, per_job] = both(seed, 1 + seed as usize % 5, 30, len, t, 1.0 - t);
        assert_eq!(classed, per_job, "seed {seed}");
        for (_, _, pick, feasible) in classed {
            match (pick, feasible) {
                (Some(_), _) => picked += 1,
                (None, false) => infeasible += 1,
                (None, true) => guarded += 1,
            }
        }
    }
    assert!(
        picked > 0 && infeasible > 0 && guarded > 0,
        "picked {picked}, infeasible {infeasible}, steal guard {guarded}"
    );
}

/// Jobs of one class share a preference, computed once for the class.
#[test]
fn preferences_are_per_class() {
    let m = workload(7, 3, 50);
    let policy = OnlinePolicy::new(&m, HcsConfig::with_cap(cap_at(&m, 0.5)));
    let per_job = OnlinePolicy::new(&PerJob(&m), HcsConfig::with_cap(cap_at(&m, 0.5)));
    assert_eq!(policy.job_count(), 50);
    assert_eq!(policy.preferences().len(), 3);
    for j in 0..m.len() {
        assert_eq!(
            policy.preferences()[m.class(j)],
            per_job.preferences()[j],
            "job {j}"
        );
    }
}
