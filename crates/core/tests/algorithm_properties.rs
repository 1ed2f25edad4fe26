//! Crate-level property tests for the scheduling stack (beyond the unit
//! proptests in `tests/integration_properties.rs`): the theorem's algebra,
//! the fairness metrics, and objective consistency.

use apu_sim::Device;
use corun_core::{
    corun_beneficial, corun_makespan_conservative, edp_js, energy_j, evaluate, fairness,
    pair_completion, Assignment, CoRunModel, Schedule, TableModel,
};
use proptest::prelude::*;

fn model_from(seed: u64, n: usize) -> TableModel {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    let times: Vec<(f64, f64)> = (0..n)
        .map(|_| (5.0 + 50.0 * next(), 5.0 + 50.0 * next()))
        .collect();
    let degs: Vec<f64> = (0..n * n).map(|_| next() * 0.9).collect();
    TableModel::build(
        (0..n).map(|i| format!("j{i}")).collect(),
        3,
        3,
        4.0,
        move |i, d, f| {
            let (tc, tg) = times[i];
            let t = match d {
                Device::Cpu => tc,
                Device::Gpu => tg,
            };
            t / (0.4 + 0.3 * f as f64)
        },
        move |i, _d, _f, j, _g| degs[i * n + j],
        move |_i, _d, f| 5.0 + 3.0 * f as f64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservative_makespan_upper_bounds_true_pair(
        l1 in 0.5f64..50.0, d1 in 0.0f64..1.5,
        l2 in 0.5f64..50.0, d2 in 0.0f64..1.5,
    ) {
        let (t1, t2) = pair_completion(l1, d1, l2, d2);
        let cons = corun_makespan_conservative(l1, d1, l2, d2);
        prop_assert!(t1.max(t2) <= cons + 1e-9);
        // and the pair is never faster than the slower solo job
        prop_assert!(t1.max(t2) >= l1.max(l2) - 1e-9);
    }

    #[test]
    fn beneficial_corun_really_beats_sequential(
        l1 in 0.5f64..50.0, d1 in 0.0f64..1.5,
        l2 in 0.5f64..50.0, d2 in 0.0f64..1.5,
    ) {
        if corun_beneficial(l1, d1, l2, d2) {
            let (t1, t2) = pair_completion(l1, d1, l2, d2);
            prop_assert!(t1.max(t2) < l1 + l2, "partial overlap only helps further");
        }
    }

    #[test]
    fn energy_bounded_by_peak_power(seed in any::<u64>(), n in 2usize..8) {
        let m = model_from(seed, n);
        let mut s = Schedule::new();
        for i in 0..n {
            if i % 2 == 0 {
                s.cpu.push(Assignment { job: i, level: 2 });
            } else {
                s.gpu.push(Assignment { job: i, level: 2 });
            }
        }
        let r = evaluate(&m, &s, None);
        let e = energy_j(&r);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= r.peak_power_w * r.makespan_s + 1e-6);
        prop_assert!((edp_js(&r) - e * r.makespan_s).abs() < 1e-6);
    }

    #[test]
    fn fairness_indices_in_range(seed in any::<u64>(), n in 2usize..8) {
        let m = model_from(seed, n);
        let mut s = Schedule::new();
        for i in 0..n {
            s.gpu.push(Assignment { job: i, level: 2 });
        }
        let r = evaluate(&m, &s, None);
        let f = fairness(&m, &r, f64::INFINITY);
        prop_assert!(f.jain_index > 0.0 && f.jain_index <= 1.0 + 1e-12);
        prop_assert!(f.max_slowdown + 1e-9 >= f.mean_slowdown);
        for sd in f.slowdown.iter().flatten() {
            prop_assert!(*sd >= 0.99, "slowdown below 1: {sd}");
        }
    }

    #[test]
    fn evaluator_finish_times_monotone_within_queue(seed in any::<u64>(), n in 3usize..8) {
        // Jobs later in a queue finish later.
        let m = model_from(seed, n);
        let mut s = Schedule::new();
        for i in 0..n {
            s.cpu.push(Assignment { job: i, level: 2 });
        }
        let r = evaluate(&m, &s, None);
        let mut prev = 0.0;
        for i in 0..n {
            let f = r.finish_s[i].unwrap();
            prop_assert!(f >= prev - 1e-9);
            prev = f;
        }
        let _ = m.len();
    }
}
