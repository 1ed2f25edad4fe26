//! Cluster-wide power-budget partitioning.
//!
//! A fleet coordinator owns one datacenter-level power cap and must hand
//! each shard a cap of its own. The paper's scheduler (and this repo's
//! [`crate::online::OnlinePolicy`]) takes the cap as a given per machine;
//! this module decides *what cap each shard gets* so that the shard caps
//! never sum past the cluster cap — the fleet-level invariant checked by
//! [`respects_cluster_cap`] and asserted by the coordinator after every
//! rebalance.
//!
//! The split is proportional to per-shard demand with a per-shard floor:
//! an idle shard keeps enough budget to admit its first job, and busy
//! shards absorb the surplus in proportion to the work they already
//! carry. Shards reported as down ([`ShardDemand::Down`]) get exactly
//! zero so their budget flows to the survivors.

/// One shard's demand signal for a partitioning round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardDemand {
    /// Shard is reachable; `watts` is its current admitted demand
    /// (e.g. the power its running + queued jobs would like to draw).
    /// Non-finite or negative values are treated as zero demand.
    Up {
        /// Admitted demand, watts.
        watts: f64,
    },
    /// Shard is unreachable / crashed: it receives a zero cap and its
    /// share flows to the surviving shards.
    Down,
}

/// Relative tolerance for the cap-sum invariant: partitioning is exact
/// in real arithmetic, so only accumulated rounding can push the sum
/// over the cluster cap.
const CAP_SUM_REL_EPS: f64 = 1e-9;

/// True iff `sum(shard_caps) <= cluster_cap_w` up to floating-point
/// rounding (relative tolerance `CAP_SUM_REL_EPS`) and every cap is
/// finite and non-negative.
#[must_use]
pub fn respects_cluster_cap(shard_caps_w: &[f64], cluster_cap_w: f64) -> bool {
    if shard_caps_w.iter().any(|c| !c.is_finite() || *c < 0.0) {
        return false;
    }
    let sum: f64 = shard_caps_w.iter().sum();
    sum <= cluster_cap_w * (1.0 + CAP_SUM_REL_EPS) + f64::EPSILON
}

/// Partition `cluster_cap_w` across shards proportionally to demand.
///
/// Every *up* shard receives at least `floor_w` (so an idle shard can
/// still admit work); the surplus above the floors is split in
/// proportion to demand, or evenly when no shard reports demand. Down
/// shards receive exactly `0.0`.
///
/// Degenerate inputs degrade instead of panicking: if the cluster cap
/// cannot cover every up shard's floor (a misconfiguration
/// [`corun_verify`-level lints reject up front), the cap is split
/// evenly across up shards. The result always satisfies
/// [`respects_cluster_cap`]; in real arithmetic the caps sum to exactly
/// `cluster_cap_w` whenever at least one shard is up.
///
/// # Panics
/// Panics if `cluster_cap_w` or `floor_w` is negative or non-finite.
#[must_use]
pub fn partition_cluster_cap(
    cluster_cap_w: f64,
    demands: &[ShardDemand],
    floor_w: f64,
) -> Vec<f64> {
    assert!(
        cluster_cap_w.is_finite() && cluster_cap_w >= 0.0,
        "cluster cap must be finite and non-negative, got {cluster_cap_w}"
    );
    assert!(
        floor_w.is_finite() && floor_w >= 0.0,
        "shard floor must be finite and non-negative, got {floor_w}"
    );
    let up: Vec<usize> = demands
        .iter()
        .enumerate()
        .filter(|(_, d)| matches!(d, ShardDemand::Up { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut caps = vec![0.0; demands.len()];
    if up.is_empty() {
        return caps;
    }
    #[allow(clippy::cast_precision_loss)]
    let n_up = up.len() as f64;
    if cluster_cap_w < floor_w * n_up {
        // Infeasible floors: degrade to an even split so the invariant
        // still holds while lints flag the misconfiguration.
        for &i in &up {
            caps[i] = cluster_cap_w / n_up;
        }
        return caps;
    }
    let weight = |i: usize| -> f64 {
        match demands[i] {
            ShardDemand::Up { watts } if watts.is_finite() && watts > 0.0 => watts,
            _ => 0.0,
        }
    };
    let total: f64 = up.iter().map(|&i| weight(i)).sum();
    let surplus = cluster_cap_w - floor_w * n_up;
    for &i in &up {
        let share = if total > 0.0 {
            surplus * weight(i) / total
        } else {
            surplus / n_up
        };
        caps[i] = floor_w + share;
    }
    debug_assert!(respects_cluster_cap(&caps, cluster_cap_w));
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(watts: f64) -> ShardDemand {
        ShardDemand::Up { watts }
    }

    #[test]
    fn proportional_split_with_floor() {
        let caps = partition_cluster_cap(100.0, &[up(10.0), up(30.0)], 10.0);
        // floors: 10 + 10; surplus 80 split 1:3 -> 20 and 60.
        assert!((caps[0] - 30.0).abs() < 1e-9);
        assert!((caps[1] - 70.0).abs() < 1e-9);
        assert!(respects_cluster_cap(&caps, 100.0));
    }

    #[test]
    fn zero_demand_splits_evenly() {
        let caps = partition_cluster_cap(90.0, &[up(0.0), up(0.0), up(0.0)], 5.0);
        for c in &caps {
            assert!((c - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn down_shards_get_zero_and_share_flows_to_survivors() {
        let caps = partition_cluster_cap(100.0, &[up(10.0), ShardDemand::Down, up(10.0)], 10.0);
        assert_eq!(caps[1], 0.0);
        assert!((caps[0] - 50.0).abs() < 1e-9);
        assert!((caps[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_floor_degrades_to_even_split() {
        let caps = partition_cluster_cap(10.0, &[up(1.0), up(99.0)], 20.0);
        assert!((caps[0] - 5.0).abs() < 1e-9);
        assert!((caps[1] - 5.0).abs() < 1e-9);
        assert!(respects_cluster_cap(&caps, 10.0));
    }

    #[test]
    fn all_down_yields_zeros() {
        let caps = partition_cluster_cap(100.0, &[ShardDemand::Down, ShardDemand::Down], 10.0);
        assert_eq!(caps, vec![0.0, 0.0]);
    }

    #[test]
    fn empty_fleet() {
        assert!(partition_cluster_cap(100.0, &[], 10.0).is_empty());
    }

    #[test]
    fn pathological_demands_are_treated_as_zero() {
        let caps = partition_cluster_cap(60.0, &[up(f64::NAN), up(f64::INFINITY), up(-5.0)], 10.0);
        // All weights sanitize to zero -> even surplus split on top of floors.
        for c in &caps {
            assert!((c - 20.0).abs() < 1e-9, "{caps:?}");
        }
        assert!(respects_cluster_cap(&caps, 60.0));
    }

    #[test]
    fn sum_never_exceeds_cluster_cap_across_sweep() {
        // Deterministic pseudo-random sweep (no RNG dep): splitmix-ish.
        let mut z = 0x9E37_79B9u64;
        let mut nextf = |scale: f64| {
            z = z
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (z >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        for n in 1..40 {
            let cap = nextf(1000.0);
            let floor = nextf(20.0);
            let demands: Vec<ShardDemand> = (0..n)
                .map(|i| {
                    if i % 7 == 3 {
                        ShardDemand::Down
                    } else {
                        up(nextf(200.0))
                    }
                })
                .collect();
            let caps = partition_cluster_cap(cap, &demands, floor);
            assert!(
                respects_cluster_cap(&caps, cap),
                "n={n} cap={cap} floor={floor} caps={caps:?}"
            );
        }
    }
}
