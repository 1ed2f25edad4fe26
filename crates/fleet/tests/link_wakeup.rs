//! A shard link that is backing off holds its op and wakes on its own
//! clock: the coordinator's round never sleeps for it, and the other
//! shards go on. Both links read one `ManualClock` that the test moves
//! by hand, so which attempt happens in which round is deterministic.

use corun_core::ManualClock;
use corun_fleet::{
    over_local, Fleet, FleetConfig, JobLoc, NetConfig, NetFaultPlan, Router, ShardBackend,
};
use corun_serve::{Service, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const JOBS: usize = 20;

fn start_services(shards: usize) -> Vec<Arc<Service>> {
    let machine = apu_sim::MachineConfig::ivy_bridge();
    let mut cfg = ServiceConfig::fast(&machine);
    cfg.characterization.grid_points = 3;
    cfg.characterization.micro_duration_s = 1.0;
    cfg.queue_capacity = 64;
    cfg.machines = 2;
    cfg.cache_dir =
        Some(std::env::temp_dir().join(format!("corun-link-wakeup-cache-{}", std::process::id())));
    (0..shards)
        .map(|_| Arc::new(Service::start(cfg.clone())))
        .collect()
}

/// Jobs the router places on `shard` that are not yet done there.
fn unfinished_on(router: &Router, shard: usize) -> usize {
    (0..router.jobs())
        .filter(|&id| match router.job(id).loc {
            JobLoc::Backlog(s) | JobLoc::Submitting(s) | JobLoc::InDoubt(s) => s == shard,
            JobLoc::Submitted { shard: s, .. } => s == shard,
            JobLoc::Done(_) | JobLoc::DeadLetter(_) | JobLoc::Rejected => false,
        })
        .count()
}

#[test]
fn a_backing_off_link_stalls_no_other_shard() {
    let services = start_services(2);
    let clock = ManualClock::new();
    // Shard 0's ops: 1 is the start-up `metrics`, 2 the start-up
    // `set_cap`, 3 round 1's `metrics`, and 4–6 the three attempts at its
    // first submit batch. Each of those loses its reply after the shard
    // admitted the jobs.
    let plan = NetFaultPlan::parse("@netchaos oneway=0:4..6\n")
        .expect("grammar")
        .expect("directive present");
    let net = NetConfig::default();
    let backends = services
        .iter()
        .enumerate()
        .map(|(s, svc)| {
            Box::new(over_local(
                Arc::clone(svc),
                (s == 0).then(|| plan.clone()),
                s,
                net,
                Arc::new(clock.clone()),
            )) as Box<dyn ShardBackend>
        })
        .collect();
    let mut cfg = FleetConfig::new(2, 2, 40.0);
    cfg.shard_floor_w = 15.0;
    cfg.paranoid = true;
    let mut fleet = Fleet::new(cfg, backends).expect("fleet");
    fleet
        .submit_spec(&format!("srad x0.05 *{JOBS}\n"))
        .expect("submit");

    // Round 1: shard 0's batch makes its first attempt and backs off.
    fleet.pump();
    assert_eq!(
        fleet.metrics().rpc[0].timeouts,
        1,
        "round 1 sent shard 0's batch more than once"
    );
    let in_batch = fleet.metrics().backlog;
    assert!(in_batch > 0, "shard 0 holds no batch");
    assert_eq!(
        services[0].job_count(),
        in_batch,
        "the batch landed on shard 0"
    );
    // The clock stands still, so shard 0's wake-up never comes, while
    // shard 1 runs every job placed on it to the end.
    let mut rounds = 0;
    while unfinished_on(fleet.router(), 1) > 0 {
        assert!(
            rounds < 30_000,
            "shard 1 did not drain beside a backing-off shard 0"
        );
        if fleet.pump() == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        rounds += 1;
    }
    let m = fleet.metrics();
    assert!(m.jobs_done > 0, "shard 1 ran nothing");
    assert_eq!(m.jobs_done + in_batch, JOBS, "only shard 0's batch is left");
    let r0 = m.rpc[0];
    assert_eq!(
        r0.timeouts, 1,
        "shard 0 was sent one attempt while it backed off"
    );
    assert_eq!(r0.backoffs, 1);
    assert_eq!(m.in_doubt, 0, "the batch has not settled yet");

    // Past each wake-up, one more attempt; the last one settles the batch
    // in doubt.
    for _ in 1..net.attempts {
        clock.advance(net.backoff_max_s);
        fleet.pump();
    }
    let m = fleet.metrics();
    assert_eq!(m.rpc[0].timeouts, u64::from(net.attempts));
    assert_eq!(
        m.in_doubt, in_batch,
        "every job of the lost batch is in doubt"
    );

    // The keyed resubmit settles them, and every job runs exactly once.
    let m = fleet.drain(120.0).expect("drain");
    assert!(m.drained());
    assert_eq!(m.jobs_done + m.jobs_dead_letter, JOBS);
    let terminal: usize = services
        .iter()
        .map(|s| {
            let sm = s.metrics();
            sm.completed + sm.dead_lettered
        })
        .sum();
    assert_eq!(terminal, JOBS, "a job was lost or ran twice");
    for id in 0..fleet.router().jobs() {
        assert_eq!(fleet.router().job(id).submits, 1, "job {id}");
    }
    assert!(m.max_cap_sum_w <= m.cluster_cap_w + 1e-9);
    fleet.begin_shutdown();
    fleet.finish();
    for svc in &services {
        svc.shutdown();
    }
}
