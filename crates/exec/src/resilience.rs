//! Resilience policies: how the scheduler recovers from injected
//! hardware faults instead of shedding.
//!
//! Three mechanisms compose (motivated by the robust-dynamic-hybrid-join
//! and CPU/GPU co-processing lines of work in PAPERS.md), selected as one
//! [`Resilience`] policy:
//!
//! * retry with exponential backoff — deterministic, seed-derived
//!   jitter, bounded by each query's deadline — for transient kernel
//!   failures;
//! * a **degradation ladder** ([`downgrade_operator`]) — on admission
//!   failure or reservation revocation a query first shrinks its cache
//!   grant, then walks Triton → CPU-partitioned GPU join → CPU radix
//!   join, trading speed for survivability instead of being shed;
//! * a **circuit breaker** on the build cache (see
//!   [`crate::build_cache::BuildCache::quarantine_all`]).
//!
//! Faults may change timing, placement, and operator choice — never
//! answers: every recovered query still produces an exact result.

use triton_core::{CpuPartitionedJoin, CpuRadixJoin, HashScheme, SkewPolicy, TritonJoin};
use triton_hw::fault::unit_f64;
use triton_hw::units::Ns;

use crate::query::{Operator, QueryId};

/// Which fault-recovery policy the scheduler runs. The three variants
/// are the three behaviours committed numbers use: the fragile chaos
/// baseline, `fig_elastic`'s fixed-grant rows, and everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resilience {
    /// Every fault sheds its victim with
    /// [`crate::RejectReason::Faulted`] — the baseline the resilient
    /// path is compared against.
    Off,
    /// Retry with backoff, shrink the grant on a first revocation, and
    /// descend the ladder — but grants are immutable once issued, so
    /// memory pressure goes straight to revocation or shedding (the
    /// pre-elastic scheduler).
    FixedGrants,
    /// [`Resilience::FixedGrants`] plus shrink-in-place: under memory
    /// pressure (a device retiring pages, or a deadline-holding arrival
    /// that cannot be admitted) the scheduler first issues priced,
    /// traced [`crate::admission::GrantRevision::Shrink`]s against
    /// running queries' optional cache shares, and only once every cache
    /// grant is exhausted falls back to revocation and the ladder.
    #[default]
    Elastic,
}

impl Resilience {
    /// Whether faulted queries are recovered rather than shed.
    #[must_use]
    pub(crate) fn recovers(self) -> bool {
        self != Resilience::Off
    }

    /// Whether running queries' grants may be shrunk in place.
    #[must_use]
    pub(crate) fn elastic(self) -> bool {
        self == Resilience::Elastic
    }
}

/// Transient failures tolerated on one ladder rung before the query is
/// downgraded to the next operator.
pub(crate) const MAX_RETRIES: u32 = 2;

/// Grant revisions tolerated per running query before it stops being a
/// shrink victim (so one query's cache is not sanded away a page at a
/// time while others sit untouched).
pub(crate) const MAX_REVISIONS: u32 = 4;

/// First backoff delay, in ns (1 ms).
const BASE_BACKOFF_NS: f64 = 1e6;

/// Backoff growth per attempt.
const BACKOFF_MULTIPLIER: f64 = 2.0;

/// Jitter amplitude as a fraction of the delay: each delay spreads ±25 %.
const JITTER_FRAC: f64 = 0.25;

/// Seed of the jitter stream.
const JITTER_SEED: u64 = 0x7E57_AB1E;

/// The backoff before retry number `attempt` (0-based) of `id`:
/// exponential, with jitter derived deterministically from the seed, the
/// query id, and the attempt number, so chaos runs replay
/// byte-identically. The delay is clamped to `deadline_slack` — a retry
/// scheduled past the deadline is a guaranteed shed, so the policy
/// spends at most the remaining budget waiting.
#[must_use]
pub(crate) fn backoff(id: QueryId, attempt: u32, deadline_slack: Option<Ns>) -> Ns {
    let raw = BASE_BACKOFF_NS * BACKOFF_MULTIPLIER.powi(attempt.min(16) as i32);
    let u = unit_f64(
        JITTER_SEED ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 17),
    );
    let jitter = 1.0 + JITTER_FRAC * (2.0 * u - 1.0);
    let b = Ns((raw * jitter).max(0.0));
    match deadline_slack {
        Some(slack) => b.min(slack.max(Ns::ZERO)),
        None => b,
    }
}

/// The next rung of the degradation ladder, or `None` at the bottom.
///
/// Skew-aware Triton → plain Triton → CPU-partitioned GPU join (tiny
/// GPU footprint) → CPU radix join (no GPU at all). The first rung
/// drops only the skew policy: the planned placement and pair chunking
/// are the most speculative machinery, so a faulting query falls back
/// to the uniform executor before giving up GPU partitioning entirely.
/// The no-partitioning join degrades like plain Triton: its global hash
/// table is what GPU faults keep killing.
///
/// Plans learn a new *top* rung: force-materialize every intermediate
/// to host memory first (fidelity kept, the reservation shrinks to the
/// largest single operator floor), and only then drop skew-awareness.
/// A plan that still faults after both is shed — single-join fallback
/// operators cannot answer a multi-operator query.
#[must_use]
pub fn downgrade_operator(op: &Operator) -> Option<Operator> {
    match op {
        Operator::Triton(j) if j.skew.is_aware() => Some(Operator::Triton(TritonJoin {
            skew: SkewPolicy::Off,
            ..j.clone()
        })),
        Operator::Triton(_) | Operator::NoPartitioning(_) => {
            Some(Operator::CpuPartitioned(CpuPartitionedJoin::default()))
        }
        Operator::CpuPartitioned(_) => Some(Operator::CpuRadix(CpuRadixJoin::power9(
            HashScheme::BucketChaining,
        ))),
        Operator::CpuRadix(_) => None,
        Operator::Plan(p) if !p.force_materialize => {
            let mut p = p.clone();
            p.force_materialize = true;
            Some(Operator::Plan(p))
        }
        Operator::Plan(p) if p.skew.is_aware() => {
            let mut p = p.clone();
            p.skew = SkewPolicy::Off;
            Some(Operator::Plan(p))
        }
        Operator::Plan(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_is_deterministic() {
        let a0 = backoff(QueryId(1), 0, None);
        let a1 = backoff(QueryId(1), 1, None);
        let a2 = backoff(QueryId(1), 2, None);
        assert!(a1.0 > a0.0 * 1.2, "{a0} -> {a1} should roughly double");
        assert!(a2.0 > a1.0 * 1.2);
        assert_eq!(backoff(QueryId(1), 1, None), a1, "same inputs, same delay");
        assert_ne!(
            backoff(QueryId(2), 0, None).0,
            a0.0,
            "different queries must not retry in lockstep"
        );
    }

    #[test]
    fn backoff_respects_deadline_slack() {
        let b = backoff(QueryId(3), 5, Some(Ns(10.0)));
        assert!(b.0 <= 10.0);
        let unbounded = backoff(QueryId(3), 5, None);
        assert!(unbounded.0 > 10.0, "attempt 5 should back off far longer");
    }

    #[test]
    fn ladder_ends_at_cpu_radix() {
        let mut op = Operator::triton();
        let mut rungs = vec![op.label()];
        while let Some(next) = downgrade_operator(&op) {
            op = next;
            rungs.push(op.label());
        }
        assert_eq!(rungs, vec!["triton", "cpu-part", "cpu-radix"]);
        assert!(!op.uses_gpu(), "the bottom rung must not need the GPU");
    }

    #[test]
    fn skew_aware_downgrades_to_plain_triton_first() {
        let op = Operator::Triton(TritonJoin {
            skew: SkewPolicy::aware(),
            ..TritonJoin::default()
        });
        let next = downgrade_operator(&op).unwrap();
        match &next {
            Operator::Triton(j) => assert!(
                !j.skew.is_aware(),
                "first rung must only drop the skew policy"
            ),
            other => panic!("expected plain Triton, got {}", other.label()),
        }
        // The rest of the ladder is unchanged and still terminates.
        let mut op = next;
        let mut rungs = vec![op.label()];
        while let Some(next) = downgrade_operator(&op) {
            op = next;
            rungs.push(op.label());
        }
        assert_eq!(rungs, vec!["triton", "cpu-part", "cpu-radix"]);
    }
}
