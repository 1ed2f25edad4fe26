//! Integration tests for the beyond-the-paper extensions: online
//! scheduling, annealing, branch-and-bound, fairness, sweeps,
//! caching, and the second machine preset.

use apu_sim::{MachineConfig, NullGovernor};
use corun_core::CoRunModel;
use corun_core::{
    anneal, branch_and_bound, evaluate, fairness, AnnealConfig, Arrival, BnbConfig, HcsConfig,
    OnlinePolicy,
};
use kernels::{poisson, rodinia8, with_input_scale};
use runtime::{cap_sweep, CoScheduleRuntime, Method, RuntimeConfig};

fn small_rt(machine: MachineConfig, cap: f64) -> CoScheduleRuntime {
    let jobs = rodinia8(&machine)
        .jobs
        .iter()
        .map(|j| with_input_scale(j, 0.1))
        .collect();
    let mut cfg = RuntimeConfig::fast(&machine);
    cfg.cap_w = cap;
    CoScheduleRuntime::new(machine, jobs, cfg)
}

#[test]
fn optimizer_hierarchy_holds_in_model() {
    // bound <= bnb <= anneal(HCS+) <= HCS+ <= HCS (all in the model).
    let rt = small_rt(MachineConfig::ivy_bridge(), 15.0);
    let m = rt.model();
    let cap = Some(15.0);
    let hcs = evaluate(m, &rt.schedule_hcs().schedule, cap).makespan_s;
    let plus_sched = rt.schedule_hcs_plus();
    let plus = evaluate(m, &plus_sched, cap).makespan_s;
    let mut acfg = AnnealConfig::new(15.0);
    acfg.iterations = 1000;
    let ann = anneal(m, &plus_sched, &acfg).value;
    let bnb = branch_and_bound(m, &BnbConfig::new(15.0)).makespan_s;
    let bound = rt.lower_bound().t_low_s;
    assert!(plus <= hcs + 1e-9);
    assert!(ann <= plus + 1e-9);
    assert!(bnb <= ann + 1e-9);
    assert!(bound <= bnb + 1e-6);
}

#[test]
fn online_policy_full_stream_on_simulator() {
    let rt = small_rt(MachineConfig::ivy_bridge(), 15.0);
    let policy = OnlinePolicy::new(rt.model(), HcsConfig::with_cap(15.0));
    let arrivals: Vec<Arrival> = poisson(8, 2.0, 8.0, 3)
        .into_iter()
        .map(|a| Arrival {
            job: a.job,
            at_s: a.at_s,
        })
        .collect();
    let mut gov = NullGovernor;
    let run = runtime::execute_online(
        rt.machine(),
        rt.jobs(),
        rt.model(),
        &policy,
        &arrivals,
        &mut gov,
        rt.machine().freqs.min_setting(),
    )
    .expect("online run");
    assert_eq!(run.records.len(), 8);
    for rec in &run.records {
        let arrival = arrivals.iter().find(|a| a.job == rec.tag).unwrap().at_s;
        assert!(
            rec.start_s >= arrival - 1e-6,
            "no job starts before it arrives"
        );
    }
}

#[test]
fn fairness_improves_with_hcs_over_serialization() {
    let rt = small_rt(MachineConfig::ivy_bridge(), 15.0);
    let m = rt.model();
    let plus = rt.schedule_hcs_plus();
    let ev = evaluate(m, &plus, Some(15.0));
    let f_hcs = fairness(m, &ev, 15.0);
    // all on GPU sequentially
    let mut serial = corun_core::Schedule::new();
    for i in 0..m.len() {
        serial.gpu.push(corun_core::Assignment { job: i, level: 9 });
    }
    let f_serial = fairness(m, &evaluate(m, &serial, Some(15.0)), 15.0);
    assert!(
        f_hcs.jain_index > f_serial.jain_index,
        "co-scheduling is fairer than serialization: {} vs {}",
        f_hcs.jain_index,
        f_serial.jain_index
    );
}

#[test]
fn kaveri_pipeline_end_to_end() {
    let rt = small_rt(MachineConfig::kaveri(), 15.0);
    let s = rt.schedule_hcs_plus();
    assert!(s.is_complete_for(8));
    let run = rt.execute_planned(&s);
    assert_eq!(run.records.len(), 8);
    let random = rt.random_avg_makespan(0..3);
    assert!(
        run.makespan_s < random,
        "method works on the second machine too"
    );
}

#[test]
fn sweep_monotone_in_cap_for_planned_methods() {
    let machine = MachineConfig::ivy_bridge();
    let jobs: Vec<apu_sim::JobSpec> = rodinia8(&machine)
        .jobs
        .iter()
        .map(|j| with_input_scale(j, 0.08))
        .collect();
    let base = RuntimeConfig::fast(&machine);
    let r = cap_sweep(&machine, &jobs, &base, &[20.0, 10.0], &[Method::HcsPlus], 1);
    let loose = r.cell(20.0, Method::HcsPlus).unwrap();
    let tight = r.cell(10.0, Method::HcsPlus).unwrap();
    assert!(tight.makespan_s >= loose.makespan_s * 0.98);
    assert!(tight.peak_power_w <= 10.0 + 2.5, "peak near the tight cap");
}

#[test]
fn characterization_cache_roundtrip_through_pipeline() {
    let machine = MachineConfig::ivy_bridge();
    let dir = std::env::temp_dir().join(format!("corun-int-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs: Vec<apu_sim::JobSpec> = rodinia8(&machine)
        .jobs
        .iter()
        .take(3)
        .map(|j| with_input_scale(j, 0.08))
        .collect();
    let mut cfg = RuntimeConfig::fast(&machine);
    cfg.cache_dir = Some(dir.clone());
    cfg.llc_probe = false;
    let rt1 = CoScheduleRuntime::new(machine.clone(), jobs.clone(), cfg.clone());
    let rt2 = CoScheduleRuntime::new(machine, jobs, cfg);
    // Cached characterization must give identical schedules.
    assert_eq!(rt1.schedule_hcs().schedule, rt2.schedule_hcs().schedule);
    let _ = std::fs::remove_dir_all(&dir);
}
