//! Aggregate serving metrics: throughput, latency percentiles, memory
//! high-water marks, shedding counts, and fault/recovery accounting for
//! one scheduler run.
//!
//! Nothing here counts: [`SchedulerMetrics`] is read off the run's
//! [`crate::observe::Recorder`] by [`crate::observe::Recorder::finish`]
//! — the same registry series, phase rollups, and SLO ledgers the
//! telemetry exposes — so every total agrees with its breakdown by
//! construction.

use triton_hw::units::{Bytes, Ns};
use triton_trace::json::JsonObject;

/// Aggregated time and bytes of one `(operator, phase)` pair across every
/// completed query of a run — the paper's Fig 11 phase breakdown, lifted
/// to the serving runtime. Phase times are *stretched* onto each query's
/// scheduled `[start, finish]` window (plus a synthetic `queue` phase for
/// `[arrival, start]`), so for every query its rollup contributions sum
/// to its recorded latency within one simulated nanosecond.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRollup {
    /// Operator label (`triton`, `npj`, `cpu-part`, `cpu-radix`).
    pub operator: String,
    /// Normalised phase key (`ps_1`, `part_2`, `join`, `queue`, ...; see
    /// [`triton_core::phase_key`]).
    pub phase: String,
    /// Occurrences across completed queries.
    pub count: u64,
    /// Total wall time attributed to this phase.
    pub time: Ns,
    /// Total bytes the phase moved (interconnect payload plus GPU memory
    /// traffic; zero for CPU phases and queueing).
    pub bytes: Bytes,
}

/// Aggregate metrics over one serving run.
///
/// Derives `PartialEq` so chaos tests can assert byte-identical replay:
/// the same queries plus the same [`triton_hw::FaultPlan`] seed must
/// reproduce this struct exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulerMetrics {
    /// Queries that ran to completion.
    pub completed: u64,
    /// Queries refused for any reason.
    pub rejected: u64,
    /// Of the rejected: shed for a missed deadline.
    pub shed_deadline: u64,
    /// Of the rejected: bounced off the full queue.
    pub shed_queue_full: u64,
    /// Of the rejected: floors exceeding the whole GPU (or OOM).
    pub shed_capacity: u64,
    /// Of the rejected: lost to a fault with resilience disabled (or
    /// stalled past recovery).
    pub shed_faulted: u64,
    /// Simulated wall time from first arrival to last completion.
    pub makespan: Ns,
    /// Tuples processed by completed queries.
    pub tuples: u64,
    /// Aggregate throughput in G tuples/s over the makespan.
    pub throughput_gtps: f64,
    /// Median end-to-end latency of completed queries, resolved by the
    /// streaming log2 histogram (nearest-rank bucket lower bound, within
    /// one sub-bucket — ≤ 6.25 % relative — of the exact sample; memory
    /// stays bounded under sustained load).
    pub latency_p50: Ns,
    /// 99th-percentile end-to-end latency (same histogram resolution).
    pub latency_p99: Ns,
    /// Worst-case latency (tracked exactly, not bucketed).
    pub latency_max: Ns,
    /// High-water mark of concurrently reserved GPU memory.
    pub peak_gpu_reserved: Bytes,
    /// The GPU capacity those reservations were drawn from (before any
    /// fault-driven retirement).
    pub gpu_capacity: Bytes,
    /// GPU bytes lost to ECC page retirement during the run.
    pub gpu_retired: Bytes,
    /// Most queries in flight at once.
    pub peak_concurrency: usize,
    /// Time-weighted mean queries in flight (while any ran).
    pub mean_concurrency: f64,
    /// Bytes of partitioned working sets the completed joins held
    /// GPU-resident (summed over each query's placement report).
    pub cache_hit_bytes: Bytes,
    /// Bytes of partitioned working sets spilled to CPU memory.
    pub cache_spilled_bytes: Bytes,
    /// Build-cache hits (probe batches reusing a partitioned build side,
    /// exact and prefix together).
    pub build_cache_hits: u64,
    /// Of the build-cache hits: queries whose build range was served by a
    /// *covering* resident build of the same family (prefix/subsume
    /// reuse) rather than an exact entry.
    pub build_cache_prefix_hits: u64,
    /// Build-cache misses (build sides partitioned from scratch).
    pub build_cache_misses: u64,
    /// Resident builds invalidated by the circuit breaker.
    pub builds_quarantined: u64,
    /// Fault events that struck the run (kernel faults landing on a
    /// victim plus capacity revocation rounds).
    pub faults_injected: u64,
    /// Transient-fault retries, summed over terminal outcomes: each
    /// completed query's [`crate::FaultOutcome`] plus the retries a
    /// `Faulted` shed consumed. Unlike the `sched.retries` event counter
    /// this leaves out attempts of queries later shed for another reason.
    pub retries: u64,
    /// Degradation-ladder downgrades of completed queries.
    pub downgrades: u64,
    /// Reservation revocations survived by completed queries.
    pub revocations: u64,
    /// Mid-query grant revisions (shrink-in-place and grow) the
    /// scheduler issued against running queries.
    pub grant_revisions: u64,
    /// Cache bytes reclaimed from running queries by shrink revisions.
    pub grant_reclaimed: Bytes,
    /// Operator pricings served from the cost memo (repeat tenants
    /// skipping partitioning, planning, and the roofline entirely).
    pub cost_cache_hits: u64,
    /// Operator pricings that had to run. Zero when cost caching is
    /// disabled: the memo then never engages, keeping the disabled
    /// configuration byte-identical to the pre-cache scheduler.
    pub cost_cache_misses: u64,
    /// Per-`(operator, phase)` time/byte rollups over completed queries,
    /// sorted by operator then phase (deterministic order).
    pub phases: Vec<PhaseRollup>,
}

/// `p`-th percentile (0..=100) of an unsorted sample, by the
/// **nearest-rank** method: the value at 1-based rank `⌈p/100 · n⌉` of
/// the sorted sample, with the rank clamped to `[1, n]` (so `p = 0`
/// returns the minimum and `p = 100` the maximum). Returns 0 for an
/// empty sample.
///
/// The rank product is computed with a small negative epsilon before the
/// ceiling: `p/100 · n` is evaluated in floating point, and when the
/// exact product is an integer the rounding error can land just *above*
/// it (e.g. `0.35 * 20 == 7.000000000000001`), which would shift the
/// ceiling one rank too high. The epsilon is far smaller than the gap to
/// the next meaningful product, so non-integer products are unaffected.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl SchedulerMetrics {
    /// One-line human-readable summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} done / {} rejected | makespan {} | {:.2} Gtps | p50 {} p99 {} | \
             peak mem {} of {} | peak conc {} (mean {:.2}) | cache {}h ({}p)/{}m",
            self.completed,
            self.rejected,
            self.makespan,
            self.throughput_gtps,
            self.latency_p50,
            self.latency_p99,
            self.peak_gpu_reserved,
            self.gpu_capacity,
            self.peak_concurrency,
            self.mean_concurrency,
            self.build_cache_hits,
            self.build_cache_prefix_hits,
            self.build_cache_misses,
        );
        if self.faults_injected > 0 || self.shed_faulted > 0 {
            s.push_str(&format!(
                " | faults {} (retry {} / downgrade {} / revoke {} / lost {}) | retired {}",
                self.faults_injected,
                self.retries,
                self.downgrades,
                self.revocations,
                self.shed_faulted,
                self.gpu_retired,
            ));
        }
        if self.grant_revisions > 0 {
            s.push_str(&format!(
                " | grants revised {} (reclaimed {})",
                self.grant_revisions, self.grant_reclaimed,
            ));
        }
        if self.cost_cache_hits + self.cost_cache_misses > 0 {
            s.push_str(&format!(
                " | cost cache {}h/{}m",
                self.cost_cache_hits, self.cost_cache_misses,
            ));
        }
        s
    }

    /// Stable JSON encoding (fixed key order, integers exact, floats via
    /// Rust's shortest round-trip formatting) — byte-identical across
    /// runs whenever the metrics are equal, for determinism checks and
    /// machine-readable reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        let phases = self.phases.iter().map(|r| {
            JsonObject::new()
                .str("op", &r.operator)
                .str("phase", &r.phase)
                .int("count", r.count)
                .num("time_ns", r.time.0)
                .int("bytes", r.bytes.0)
        });
        JsonObject::new()
            .int("completed", self.completed)
            .int("rejected", self.rejected)
            .int("shed_deadline", self.shed_deadline)
            .int("shed_queue_full", self.shed_queue_full)
            .int("shed_capacity", self.shed_capacity)
            .int("shed_faulted", self.shed_faulted)
            .num("makespan_ns", self.makespan.0)
            .int("tuples", self.tuples)
            .num("throughput_gtps", self.throughput_gtps)
            .num("latency_p50_ns", self.latency_p50.0)
            .num("latency_p99_ns", self.latency_p99.0)
            .num("latency_max_ns", self.latency_max.0)
            .int("peak_gpu_reserved", self.peak_gpu_reserved.0)
            .int("gpu_capacity", self.gpu_capacity.0)
            .int("gpu_retired", self.gpu_retired.0)
            .int("peak_concurrency", self.peak_concurrency as u64)
            .num("mean_concurrency", self.mean_concurrency)
            .int("cache_hit_bytes", self.cache_hit_bytes.0)
            .int("cache_spilled_bytes", self.cache_spilled_bytes.0)
            .int("build_cache_hits", self.build_cache_hits)
            .int("build_cache_prefix_hits", self.build_cache_prefix_hits)
            .int("build_cache_misses", self.build_cache_misses)
            .int("builds_quarantined", self.builds_quarantined)
            .int("faults_injected", self.faults_injected)
            .int("retries", self.retries)
            .int("downgrades", self.downgrades)
            .int("revocations", self.revocations)
            .int("grant_revisions", self.grant_revisions)
            .int("grant_reclaimed", self.grant_reclaimed.0)
            .int("cost_cache_hits", self.cost_cache_hits)
            .int("cost_cache_misses", self.cost_cache_misses)
            .array("phases", phases)
            .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_metrics::{sim_ns, Log2Histogram};

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        // n = 1: every p maps to rank 1.
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0, "p={p}");
        }
    }

    #[test]
    fn percentile_two_samples_split_at_the_median() {
        // n = 2: rank ⌈p/100 · 2⌉ is 1 for p <= 50, 2 above.
        let v = [10.0, 20.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 25.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 50.1), 20.0);
        assert_eq!(percentile(&v, 99.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
    }

    #[test]
    fn percentile_hundred_samples_hit_exact_ranks() {
        // n = 100, unsorted input: p maps straight to the p-th value.
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        v.reverse();
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(
            percentile(&v, 35.0),
            35.0,
            "exact-product rank must not round up"
        );
        assert_eq!(percentile(&v, 35.5), 36.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 0.0), 1.0, "p=0 clamps to the minimum");
    }

    #[test]
    fn histogram_percentiles_agree_with_nearest_rank_within_one_bucket() {
        // The streaming histogram behind latency_p50/p99 must stay within
        // one bucket width of the exact nearest-rank percentile it
        // replaced. Deterministic LCG spread over several decades of
        // magnitude so multiple major buckets participate.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 50_000_000) as f64
            })
            .collect();
        let mut hist = Log2Histogram::new();
        for s in &samples {
            hist.record(sim_ns(*s));
        }
        for p in [50u64, 99] {
            let exact = percentile(&samples, p as f64);
            let approx = hist.value_at_percentile(p) as f64;
            let width = Log2Histogram::bucket_width_for(sim_ns(exact)) as f64;
            assert!(
                approx <= exact && exact - approx < width.max(1.0),
                "p{p}: approx {approx} vs exact {exact} (bucket width {width})"
            );
        }
        // Max is tracked exactly, not bucketed.
        let exact_max = samples.iter().cloned().fold(0.0, f64::max);
        assert_eq!(hist.max() as f64, exact_max);
    }

    #[test]
    fn json_is_stable_and_wellformed() {
        let m = SchedulerMetrics::default();
        let a = m.to_json();
        let b = m.clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"faults_injected\":0"));
        assert!(a.contains("\"cache_hit_bytes\":0,\"cache_spilled_bytes\":0"));
        assert!(a.contains("\"build_cache_prefix_hits\":0"));
        assert!(a.contains("\"cost_cache_hits\":0,\"cost_cache_misses\":0"));
        assert!(a.ends_with("\"phases\":[]}"));
        assert_eq!(m, m.clone(), "PartialEq must hold for identical runs");
    }

    #[test]
    fn json_encodes_phase_rollups() {
        let phases = vec![PhaseRollup {
            operator: "triton".into(),
            phase: "ps_1".into(),
            count: 3,
            time: Ns(1.5),
            bytes: Bytes(4096),
        }];
        let m = SchedulerMetrics {
            phases,
            ..SchedulerMetrics::default()
        };
        let j = m.to_json();
        assert!(j.contains(
            "\"phases\":[{\"op\":\"triton\",\"phase\":\"ps_1\",\"count\":3,\"time_ns\":1.5,\"bytes\":4096}]"
        ), "{j}");
    }
}
