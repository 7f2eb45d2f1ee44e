//! Skew-aware planning for the Triton join.
//!
//! The paper evaluates skewed workloads (Section 6.2.6, Fig 16) but its
//! executor treats every partition pair the same: the cache budget is
//! interleaved uniformly through the working set and pairs are processed
//! in index order. Under Zipf-distributed keys a few *hot* pairs dominate
//! both the transfer and the join time, so uniform treatment wastes GPU
//! cache on cold pairs and exposes the hot pairs' transfers on the
//! pipeline's critical path.
//!
//! This module supplies the three planning mechanisms the skew-aware
//! executor composes:
//!
//! 1. **Hotness-weighted cache placement** — estimate, per pair, how much
//!    pipeline time GPU residency would save, then greedily pin whole
//!    pairs (a value-density knapsack over the cache budget) via an
//!    explicit [`triton_mem::PlacementPlan`] instead of the uniform
//!    interleave.
//! 2. **LPT pipeline scheduling** — order pairs longest-processing-time
//!    first from the same estimates, so heavy transfers hide behind heavy
//!    joins ([`triton_hw::kernel::pipeline2_scheduled`]).
//! 3. **Heavy-hitter splitting** — give pairs whose build side exceeds a
//!    multiple of the mean extra second-pass radix bits (still bounded by
//!    the scratchpad cap).
//!
//! All estimates run through the *same* roofline model as the executed
//! kernels ([`triton_hw::kernel::KernelCost::timing`]), so the planner
//! and the simulator can never disagree about what is link-bound.

use triton_hw::kernel::KernelCost;
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_mem::PlacementPlan;

/// Which skew mechanisms are active under [`SkewPolicy::Aware`]. Each can
/// be toggled independently so tests and ablations isolate one mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewMechanisms {
    /// Hotness-weighted cache placement (whole-pair knapsack).
    pub hot_cache: bool,
    /// Longest-processing-time-first pipeline scheduling.
    pub lpt: bool,
    /// Extra second-pass bits for heavy build partitions.
    pub split_heavy: bool,
    /// A build partition is *heavy* when it exceeds this multiple of the
    /// mean build-partition size (integer, so the policy stays `Eq` and
    /// deterministic).
    pub heavy_multiple: u32,
}

impl Default for SkewMechanisms {
    fn default() -> Self {
        SkewMechanisms {
            hot_cache: true,
            lpt: true,
            split_heavy: true,
            heavy_multiple: 4,
        }
    }
}

/// Skew handling policy of the Triton join.
///
/// `Off` preserves the pre-skew-aware executor bit for bit: uniform
/// interleaved caching, index-order pipeline, size-derived second-pass
/// bits. `Aware` enables the mechanisms selected in [`SkewMechanisms`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SkewPolicy {
    /// Uniform placement and index-order scheduling (the default).
    #[default]
    Off,
    /// Skew-aware planning with the given mechanisms.
    Aware(SkewMechanisms),
}

impl SkewPolicy {
    /// The fully-enabled skew-aware policy.
    pub fn aware() -> Self {
        SkewPolicy::Aware(SkewMechanisms::default())
    }

    /// Whether any skew mechanism is active.
    pub fn is_aware(&self) -> bool {
        matches!(self, SkewPolicy::Aware(_))
    }

    /// The active mechanisms, if any.
    pub fn mechanisms(&self) -> Option<&SkewMechanisms> {
        match self {
            SkewPolicy::Off => None,
            SkewPolicy::Aware(m) => Some(m),
        }
    }

    /// Extra second-pass radix bits for a build partition of
    /// `build_tuples` against a mean of `mean_tuples`: zero unless the
    /// partition is heavy, then one bit per doubling past the threshold.
    /// The caller still clamps the sum at its scratchpad bound.
    pub fn heavy_extra_bits(&self, build_tuples: u64, mean_tuples: u64) -> u32 {
        let Some(m) = self.mechanisms() else { return 0 };
        if !m.split_heavy || mean_tuples == 0 {
            return 0;
        }
        let threshold = mean_tuples.saturating_mul(u64::from(m.heavy_multiple.max(1)));
        if build_tuples <= threshold || threshold == 0 {
            return 0;
        }
        1 + (build_tuples / threshold).ilog2()
    }
}

/// Pipeline cost estimate for one (non-empty) partition pair, derived
/// from the pass-1 histogram counts *before* the second-pass loop runs.
#[derive(Debug, Clone)]
pub struct PairEstimate {
    /// Partition index in the pass-1 fanout.
    pub part: usize,
    /// Combined pair payload (R + S) in bytes.
    pub bytes: u64,
    /// Estimated stage-A (PS 2 + Part 2) time if the pair is spilled to
    /// CPU memory and must stream over the interconnect.
    pub a_spilled: Ns,
    /// Estimated stage-A time if the pair is GPU-resident.
    pub a_resident: Ns,
    /// Estimated stage-B (join) time.
    pub b: Ns,
}

impl PairEstimate {
    /// Pipeline time residency is worth for this pair: the pair's
    /// steady-state contribution is `max(a, b)` under the two-lane
    /// barrier pipeline, so the value of pinning it is the drop in that
    /// max. Zero (never negative) when the join dominates either way.
    pub fn residency_value(&self) -> Ns {
        let spilled = self.a_spilled.max(self.b);
        let resident = self.a_resident.max(self.b);
        (spilled - resident).max(Ns(0.0))
    }

    /// Estimated total pair time under current placement assumptions
    /// (`resident` selects which stage-A estimate applies).
    pub fn stage_a(&self, resident: bool) -> Ns {
        if resident {
            self.a_resident
        } else {
            self.a_spilled
        }
    }
}

/// Instruction costs mirroring the join kernel's model (see
/// `triton.rs`); the estimator must price stage B with the same
/// constants the executed kernel uses.
const EST_BUILD_INSTR: u64 = 14;
const EST_PROBE_INSTR: u64 = 12;
/// Second-pass partitioning instructions per tuple (histogram + scatter).
const EST_PART_INSTR: u64 = 8;
/// Prefix-sum instructions per tuple.
const EST_PS_INSTR: u64 = 4;
const TUPLE_BYTES: u64 = triton_datagen::TUPLE_BYTES;
const KEY_BYTES: u64 = 8;

/// Estimate one pair's stage times through the real roofline model.
///
/// The spilled stage A mirrors the executed path: PS 2 streams the key
/// columns over the link twice (histogram + copy-in) and stages both
/// columns in GPU memory; Part 2 then reads and scatters the staged pair
/// within GPU memory. The resident variant reads the keys once from GPU
/// memory and skips the copy. Stage B prices the join's build/probe
/// instruction stream and its GPU-memory reads.
pub fn estimate_pair(
    part: usize,
    build_tuples: u64,
    probe_tuples: u64,
    half_sms: u32,
    hw: &HwConfig,
) -> PairEstimate {
    let n = build_tuples + probe_tuples;
    let bytes = n * TUPLE_BYTES;

    let mut a_sp = KernelCost::new("est a spilled");
    a_sp.sms = half_sms;
    a_sp.link.seq_read = Bytes(2 * n * KEY_BYTES);
    a_sp.gpu_mem.write = Bytes(n * TUPLE_BYTES);
    // Part 2 reads the staged pair and scatters it through SWWC buffers —
    // full-buffer flushes are coalesced, transaction-aligned writes, so
    // the scatter prices as sequential GPU-memory bandwidth.
    a_sp.gpu_mem.read = Bytes(n * TUPLE_BYTES);
    a_sp.gpu_mem.write += Bytes(n * TUPLE_BYTES);
    a_sp.instructions = n * (EST_PS_INSTR + EST_PART_INSTR);

    let mut a_res = KernelCost::new("est a resident");
    a_res.sms = half_sms;
    a_res.gpu_mem.read = Bytes(n * KEY_BYTES + n * TUPLE_BYTES);
    a_res.gpu_mem.write = Bytes(n * TUPLE_BYTES);
    a_res.instructions = n * (EST_PS_INSTR + EST_PART_INSTR);

    let mut b = KernelCost::new("est b");
    b.sms = half_sms;
    b.gpu_mem.read = Bytes(n * TUPLE_BYTES);
    b.instructions = build_tuples * EST_BUILD_INSTR + probe_tuples * EST_PROBE_INSTR;

    PairEstimate {
        part,
        bytes,
        a_spilled: a_sp.timing(hw).total,
        a_resident: a_res.timing(hw).total,
        b: b.timing(hw).total,
    }
}

/// One pair's geometry handed to the cache planner: where its R and S
/// slices live (as half-open *page* ranges within each hybrid array).
#[derive(Debug, Clone)]
pub struct PairExtent {
    /// R-array page range of the pair.
    pub r_pages: (u64, u64),
    /// S-array page range of the pair.
    pub s_pages: (u64, u64),
}

/// Output of the hotness-weighted cache planner.
#[derive(Debug, Clone, Default)]
pub struct CachePlan {
    /// GPU-resident page ranges of the R array.
    pub r_plan: PlacementPlan,
    /// GPU-resident page ranges of the S array.
    pub s_plan: PlacementPlan,
    /// Per input pair: whether the *whole* pair was pinned GPU-resident.
    pub cached: Vec<bool>,
}

/// Greedy value-density knapsack over the cache budget: pairs are ranked
/// by estimated pipeline savings per resident page and pinned whole while
/// they fit; any leftover budget caches a leading fraction of the best
/// remaining pair (so no granted page goes unused). Deterministic: ties
/// break on partition index.
pub fn plan_cache(
    estimates: &[PairEstimate],
    extents: &[PairExtent],
    budget_pages: u64,
) -> CachePlan {
    assert_eq!(estimates.len(), extents.len());
    let pages_of = |i: usize| {
        let (rs, re) = extents[i].r_pages;
        let (ss, se) = extents[i].s_pages;
        (re - rs) + (se - ss)
    };
    let mut order: Vec<usize> = (0..estimates.len()).collect();
    order.sort_by(|&x, &y| {
        let dx = estimates[x].residency_value().0 / pages_of(x).max(1) as f64;
        let dy = estimates[y].residency_value().0 / pages_of(y).max(1) as f64;
        dy.total_cmp(&dx)
            .then(estimates[x].part.cmp(&estimates[y].part))
    });

    let mut r_ranges: Vec<(u64, u64)> = Vec::new();
    let mut s_ranges: Vec<(u64, u64)> = Vec::new();
    let mut cached = vec![false; estimates.len()];
    let mut left = budget_pages;
    let mut leftovers: Vec<usize> = Vec::new();
    for &i in &order {
        if estimates[i].residency_value().0 <= 0.0 {
            continue;
        }
        let need = pages_of(i);
        if need == 0 {
            continue;
        }
        if need <= left {
            r_ranges.push(extents[i].r_pages);
            s_ranges.push(extents[i].s_pages);
            cached[i] = true;
            left -= need;
        } else {
            leftovers.push(i);
        }
    }
    // Fractional tail: spend what remains on a prefix of the best pair
    // that did not fit whole (classic greedy-knapsack relaxation).
    if left > 0 {
        if let Some(&i) = leftovers.first() {
            let (rs, re) = extents[i].r_pages;
            let take_r = (re - rs).min(left);
            r_ranges.push((rs, rs + take_r));
            left -= take_r;
            let (ss, se) = extents[i].s_pages;
            let take_s = (se - ss).min(left);
            s_ranges.push((ss, ss + take_s));
        }
    }
    CachePlan {
        r_plan: PlacementPlan::new(r_ranges),
        s_plan: PlacementPlan::new(s_ranges),
        cached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(512)
    }

    #[test]
    fn policy_defaults_to_off() {
        assert_eq!(SkewPolicy::default(), SkewPolicy::Off);
        assert!(!SkewPolicy::Off.is_aware());
        assert!(SkewPolicy::aware().is_aware());
        assert!(SkewPolicy::Off.mechanisms().is_none());
    }

    #[test]
    fn heavy_extra_bits_scale_with_excess() {
        let p = SkewPolicy::aware();
        // Mean 100, multiple 4: threshold 400.
        assert_eq!(p.heavy_extra_bits(100, 100), 0);
        assert_eq!(p.heavy_extra_bits(400, 100), 0);
        assert_eq!(p.heavy_extra_bits(401, 100), 1);
        assert_eq!(p.heavy_extra_bits(800, 100), 2);
        assert_eq!(p.heavy_extra_bits(3200, 100), 4);
        assert_eq!(p.heavy_extra_bits(1_000_000, 0), 0);
        assert_eq!(SkewPolicy::Off.heavy_extra_bits(1_000_000, 1), 0);
        let no_split = SkewPolicy::Aware(SkewMechanisms {
            split_heavy: false,
            ..SkewMechanisms::default()
        });
        assert_eq!(no_split.heavy_extra_bits(1_000_000, 1), 0);
    }

    #[test]
    fn spilled_estimate_dominates_resident() {
        let e = estimate_pair(0, 1 << 16, 1 << 20, 40, &hw());
        assert!(e.a_spilled > e.a_resident, "{e:?}");
        assert!(e.b.0 > 0.0);
        assert_eq!(e.bytes, ((1u64 << 16) + (1 << 20)) * 16);
        assert!(e.residency_value().0 >= 0.0);
        assert_eq!(e.stage_a(true), e.a_resident);
        assert_eq!(e.stage_a(false), e.a_spilled);
    }

    #[test]
    fn planner_prefers_high_value_pairs() {
        let h = hw();
        // Pair 0 is hot (link-heavy), pair 1 is cold and tiny.
        let estimates = vec![
            estimate_pair(0, 1 << 14, 1 << 18, 40, &h),
            estimate_pair(1, 1 << 8, 1 << 10, 40, &h),
        ];
        let extents = vec![
            PairExtent {
                r_pages: (0, 8),
                s_pages: (0, 128),
            },
            PairExtent {
                r_pages: (8, 9),
                s_pages: (128, 130),
            },
        ];
        // Budget fits only the hot pair.
        let plan = plan_cache(&estimates, &extents, 136);
        assert!(plan.cached[0], "hot pair must be pinned");
        assert_eq!(
            plan.r_plan.gpu_pages_total() + plan.s_plan.gpu_pages_total(),
            136
        );
    }

    #[test]
    fn planner_never_exceeds_budget() {
        let h = hw();
        let estimates: Vec<PairEstimate> = (0..8)
            .map(|i| estimate_pair(i, 1 << 12, 1 << 14, 40, &h))
            .collect();
        let extents: Vec<PairExtent> = (0..8u64)
            .map(|i| PairExtent {
                r_pages: (i * 4, i * 4 + 4),
                s_pages: (i * 16, i * 16 + 16),
            })
            .collect();
        for budget in [0u64, 5, 19, 20, 40, 57, 160, 1000] {
            let plan = plan_cache(&estimates, &extents, budget);
            let used = plan.r_plan.gpu_pages_total() + plan.s_plan.gpu_pages_total();
            assert!(used <= budget, "budget {budget}: used {used}");
            // Whole-pair flags only for fully resident pairs.
            for (i, &c) in plan.cached.iter().enumerate() {
                if c {
                    let (rs, re) = extents[i].r_pages;
                    let (ss, se) = extents[i].s_pages;
                    assert_eq!(
                        plan.r_plan.gpu_pages_among(re) - plan.r_plan.gpu_pages_among(rs),
                        re - rs
                    );
                    assert_eq!(
                        plan.s_plan.gpu_pages_among(se) - plan.s_plan.gpu_pages_among(ss),
                        se - ss
                    );
                }
            }
        }
    }

    #[test]
    fn leftover_budget_fills_a_partial_pair() {
        let h = hw();
        let estimates = vec![estimate_pair(0, 1 << 14, 1 << 18, 40, &h)];
        let extents = vec![PairExtent {
            r_pages: (0, 10),
            s_pages: (10, 100),
        }];
        // Pair needs 100 pages; only 30 available → partial prefix.
        let plan = plan_cache(&estimates, &extents, 30);
        assert!(!plan.cached[0]);
        assert_eq!(
            plan.r_plan.gpu_pages_total() + plan.s_plan.gpu_pages_total(),
            30
        );
    }
}
