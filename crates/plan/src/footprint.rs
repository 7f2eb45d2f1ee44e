//! Peak-footprint math and intermediate-placement planning.
//!
//! The executor runs a plan's nodes one at a time (deterministic
//! topological order), so GPU memory must hold, at any step, only the
//! running operator's working state plus whichever intermediate edges
//! are pipelined GPU-resident across that step. Admission therefore
//! reserves the *peak* concurrent footprint along the schedule — not the
//! sum of all operators — and the same estimates drive the greedy
//! placement rule deciding which edges stay resident.

use triton_core::{BloomFilter, TritonJoin};
use triton_datagen::TUPLE_BYTES;
use triton_hw::HwConfig;

use crate::dag::{Plan, PlanNode};

/// The footprint analysis of one plan at one budget.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// Peak bytes needed at any single step: the admission reservation.
    pub peak: u64,
    /// Sum over all operators of floor + estimated output — what a
    /// naive per-operator admission would reserve. Kept for the
    /// peak-vs-sum comparison; never used to admit.
    pub sum: u64,
    /// Per node: does its output edge stay GPU-resident for consumers?
    /// Scans (base relations live in CPU memory) and the root are
    /// always `false`.
    pub resident: Vec<bool>,
    /// Per node: working-state bytes while the node itself runs (the
    /// operator's internal pipeline reservation).
    pub floors: Vec<u64>,
    /// Per node: estimated output cardinality (tuples, upper bound
    /// under the FK-join model).
    pub est_out: Vec<u64>,
}

/// Estimated output cardinality per node, in topological order. All
/// estimates are upper bounds under the workspace's workload model:
/// unique-keyed build sides make a join's output at most its probe
/// input, and Bloom filters only drop tuples.
pub fn estimate_cardinalities(plan: &Plan, input_tuples: &[u64]) -> Vec<u64> {
    let mut est = Vec::with_capacity(plan.nodes.len());
    for node in &plan.nodes {
        let e = match *node {
            PlanNode::Scan { input } => input_tuples.get(input).copied().unwrap_or(0),
            PlanNode::Select { child, pred } => pred.estimate(est[child]),
            PlanNode::Bloom { probe, .. } => est[probe],
            PlanNode::Join { probe, .. } => est[probe],
            PlanNode::Agg { child } => est[child],
        };
        est.push(e);
    }
    est
}

/// Working-state floor of one node: the bytes its operator reserves in
/// GPU memory while running, mirroring each operator's internal
/// reservation (`TritonJoin`: two first-pass partition pairs plus the
/// pipeline slack; `GpuAggregation`: the same shape over one relation;
/// `BloomFilter`: the filter array).
fn node_floor(node: &PlanNode, est: &[u64], hw: &HwConfig) -> u64 {
    let cap8 = hw.gpu.mem_capacity.0 / 8;
    match *node {
        PlanNode::Scan { .. } | PlanNode::Select { .. } => 0,
        PlanNode::Bloom { build, .. } => BloomFilter::build_side_bytes(est[build] as usize),
        PlanNode::Join { build, probe, .. } => {
            let r_bytes = est[build] * TUPLE_BYTES;
            let total = (est[build] + est[probe]) * TUPLE_BYTES;
            let b1 = TritonJoin::pass1_bits(r_bytes, total, hw);
            2 * (total >> b1).max(1) + cap8
        }
        PlanNode::Agg { child } => {
            let bytes = est[child] * TUPLE_BYTES;
            let b1 = TritonJoin::pass1_bits(bytes, bytes, hw);
            2 * (bytes >> b1).max(1) + cap8
        }
    }
}

/// Analyse a plan's footprint under `budget` bytes of GPU memory:
/// estimate cardinalities, compute per-node floors, greedily pin output
/// edges GPU-resident (in node order — earlier intermediates are hotter,
/// feeding the very next operator) whenever the edge fits beside every
/// floor and already-resident edge across its live range, and report the
/// resulting peak. `force_materialize` skips pinning entirely — the
/// degradation ladder's new top rung.
pub fn plan_footprint(
    plan: &Plan,
    input_tuples: &[u64],
    hw: &HwConfig,
    budget: u64,
    force_materialize: bool,
) -> Footprint {
    let n = plan.nodes.len();
    let est = estimate_cardinalities(plan, input_tuples);
    let floors: Vec<u64> = plan
        .nodes
        .iter()
        .map(|node| node_floor(node, &est, hw))
        .collect();
    let last = plan.last_consumer();

    // Greedy residency: edge i lives over steps [i, last[i]]; it may be
    // pinned iff floor + already-live resident bytes + this edge fit the
    // budget at every step of that range.
    let mut resident = vec![false; n];
    let mut live = vec![0u64; n];
    for i in 0..n {
        let is_edge = !matches!(plan.nodes[i], PlanNode::Scan { .. }) && last[i] > i;
        if force_materialize || !is_edge {
            continue;
        }
        let edge_bytes = est[i] * TUPLE_BYTES;
        if (i..=last[i]).all(|s| floors[s] + live[s] + edge_bytes <= budget) {
            resident[i] = true;
            for l in live.iter_mut().take(last[i] + 1).skip(i) {
                *l += edge_bytes;
            }
        }
    }

    let peak = (0..n).map(|s| floors[s] + live[s]).max().unwrap_or(0);
    let sum = (0..n)
        .filter(|&i| !matches!(plan.nodes[i], PlanNode::Scan { .. }))
        .map(|i| floors[i] + est[i] * TUPLE_BYTES)
        .sum();
    Footprint {
        peak,
        sum,
        resident,
        floors,
        est_out: est,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::EmitMap;

    fn two_join_plan() -> Plan {
        Plan {
            nodes: vec![
                PlanNode::Scan { input: 0 },
                PlanNode::Scan { input: 1 },
                PlanNode::Scan { input: 2 },
                PlanNode::Join {
                    build: 0,
                    probe: 1,
                    emit: EmitMap::KeyFromProbeRid,
                },
                PlanNode::Join {
                    build: 3,
                    probe: 2,
                    emit: EmitMap::KeepKey,
                },
                PlanNode::Agg { child: 4 },
            ],
        }
    }

    #[test]
    fn estimates_follow_the_fk_model() {
        let est = estimate_cardinalities(&two_join_plan(), &[100, 400, 1600]);
        assert_eq!(est, vec![100, 400, 1600, 400, 1600, 1600]);
    }

    #[test]
    fn generous_budget_pins_all_edges() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, u64::MAX, false);
        assert_eq!(fp.resident, vec![false, false, false, true, true, false]);
        assert!(fp.peak < fp.sum, "peak {} vs sum {}", fp.peak, fp.sum);
    }

    #[test]
    fn zero_budget_pins_nothing() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, 0, false);
        assert!(fp.resident.iter().all(|&r| !r));
        // Peak falls back to the largest single floor.
        assert_eq!(fp.peak, *fp.floors.iter().max().unwrap());
    }

    #[test]
    fn force_materialize_matches_zero_budget_residency() {
        let hw = HwConfig::ac922().scaled(512);
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, u64::MAX, true);
        assert!(fp.resident.iter().all(|&r| !r));
    }

    #[test]
    fn placement_is_stable_at_its_own_peak() {
        // Re-running the analysis with budget = peak reproduces the same
        // placement: the admission grant is exactly what execution needs.
        let hw = HwConfig::ac922().scaled(512);
        let cap = hw.gpu.mem_capacity.0;
        let fp = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, cap, false);
        let again = plan_footprint(&two_join_plan(), &[100, 400, 1600], &hw, fp.peak, false);
        assert_eq!(fp, again);
    }
}
