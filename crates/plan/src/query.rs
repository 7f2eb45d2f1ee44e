//! [`PlanQuery`]: a validated plan plus its inputs, packaged for the
//! serving runtime — admission math (peak footprint, not sum), the
//! degradation knobs the resilience ladder flips, and a fallible run
//! entry point matching the single-join operators.

use triton_core::SkewPolicy;
use triton_datagen::{Relation, TUPLE_BYTES};
use triton_hw::units::Bytes;
use triton_hw::{HwConfig, MemSide};
use triton_mem::OutOfMemory;

use crate::dag::{Plan, PlanError};
use crate::exec::{execute, PlanConfig, PlanRun};
use crate::footprint::{plan_footprint, Footprint};

/// A multi-operator query ready to serve: the DAG, its base relations,
/// and the execution knobs the scheduler may adjust.
#[derive(Debug, Clone)]
pub struct PlanQuery {
    plan: Plan,
    inputs: Vec<Relation>,
    /// Materialize every intermediate edge to host — the degradation
    /// ladder's first rung for plans (fidelity kept, pipelining given
    /// up), and a reservation reducer under memory pressure.
    pub force_materialize: bool,
    /// Skew policy applied to every join node.
    pub skew: SkewPolicy,
    /// Placement budget granted by admission; `None` = full capacity.
    pub budget: Option<Bytes>,
    /// Working-set cache budget granted by admission.
    pub cache_grant: Option<Bytes>,
}

impl PlanQuery {
    /// Package a validated plan over its inputs.
    pub fn new(plan: Plan, inputs: Vec<Relation>) -> Result<Self, PlanError> {
        plan.validate(inputs.len())?;
        Ok(PlanQuery {
            plan,
            inputs,
            force_materialize: false,
            skew: SkewPolicy::default(),
            budget: None,
            cache_grant: None,
        })
    }

    /// The plan DAG.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The base relations.
    pub fn inputs(&self) -> &[Relation] {
        &self.inputs
    }

    /// Total base-relation tuples.
    pub fn input_tuples(&self) -> u64 {
        self.inputs.iter().map(|r| r.len() as u64).sum()
    }

    /// Footprint analysis at `budget` bytes (the admission math).
    pub fn footprint(&self, hw: &HwConfig, budget: u64) -> Footprint {
        let tuples: Vec<u64> = self.inputs.iter().map(|r| r.len() as u64).collect();
        plan_footprint(&self.plan, &tuples, hw, budget, self.force_materialize)
    }

    /// Minimum GPU-memory reservation: the *peak* concurrent operator
    /// footprint along the schedule under full capacity — never the sum
    /// of all operators. Re-running placement at exactly this budget
    /// reproduces the same residency decisions, so the grant is tight.
    pub fn min_reserve(&self, hw: &HwConfig) -> Bytes {
        let fp = self.footprint(hw, hw.gpu.mem_capacity.0);
        Bytes(fp.peak)
    }

    /// Desired working-set cache beyond the floor: the base relations
    /// the join nodes would like to keep device-side.
    pub fn cache_desired(&self) -> Bytes {
        Bytes(self.input_tuples() * TUPLE_BYTES)
    }

    /// Execute the plan, surfacing simulated out-of-memory conditions.
    /// Runs under the granted budget when the scheduler set one.
    pub fn run(&self, hw: &HwConfig) -> Result<PlanRun, OutOfMemory> {
        let cfg = PlanConfig {
            force_materialize: self.force_materialize,
            budget: self.budget,
            cache: self.cache_grant,
            skew: self.skew,
        };
        execute(&self.plan, &self.inputs, hw, &cfg).map_err(|e| match e {
            PlanError::Oom(oom) => oom,
            // Unreachable: the constructor validated the plan. Surface
            // it as a zero-byte allocation failure rather than panic.
            PlanError::Invalid(_) => OutOfMemory {
                side: MemSide::Gpu,
                requested: Bytes(0),
                available: Bytes(0),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{EmitMap, PlanNode};

    fn query() -> PlanQuery {
        let r = Relation::from_columns((1..=256u64).collect(), (0..256u64).collect());
        let s = Relation::from_columns(
            (0..2048u64).map(|i| i % 256 + 1).collect(),
            (0..2048u64).collect(),
        );
        let plan = Plan {
            nodes: vec![
                PlanNode::Scan { input: 0 },
                PlanNode::Scan { input: 1 },
                PlanNode::Join {
                    build: 0,
                    probe: 1,
                    emit: EmitMap::KeepKey,
                },
                PlanNode::Agg { child: 2 },
            ],
        };
        PlanQuery::new(plan, vec![r, s]).unwrap()
    }

    #[test]
    fn constructor_validates() {
        let bad = Plan { nodes: vec![] };
        assert!(PlanQuery::new(bad, vec![]).is_err());
    }

    #[test]
    fn reserve_is_peak_not_sum() {
        let hw = HwConfig::ac922().scaled(2048);
        let q = query();
        let fp = q.footprint(&hw, hw.gpu.mem_capacity.0);
        assert_eq!(q.min_reserve(&hw).0, fp.peak);
        assert!(fp.peak < fp.sum);
    }

    #[test]
    fn force_materialize_shrinks_the_reservation() {
        let hw = HwConfig::ac922().scaled(2048);
        let mut q = query();
        let piped = q.min_reserve(&hw);
        q.force_materialize = true;
        assert!(q.min_reserve(&hw) <= piped);
    }

    #[test]
    fn runs_and_answers() {
        let hw = HwConfig::ac922().scaled(2048);
        let q = query();
        let run = q.run(&hw).unwrap();
        assert_eq!(run.agg, crate::oracle::reference_plan(q.plan(), q.inputs()));
    }
}
