//! End-to-end telemetry tests: the windowed time-series registry on
//! [`triton_exec::ServeResult::telemetry`] must reconcile exactly with
//! run totals — across shuffled submission orders, fault schedules, and
//! grant-revision schedules — and the [`triton_exec::SchedulerMetrics`]
//! read off it must agree with the typed per-query outcomes and the
//! per-tenant [`triton_exec::SloAccount`] ledgers.

use triton_datagen::WorkloadSpec;
use triton_exec::{
    percentile, tenant_of, FaultPlan, JoinQuery, Log2Histogram, Outcome, RejectReason, Scheduler,
    SchedulerConfig, ServeResult,
};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_metrics::sim_ns;

const K: u64 = 512;

fn hw() -> HwConfig {
    HwConfig::ac922().scaled(K)
}

/// A deterministic batch of queries across three tenants.
fn tenants(n: usize, m_tuples: u64) -> Vec<JoinQuery> {
    (0..n)
        .map(|i| {
            let mut spec = WorkloadSpec::paper_default(m_tuples, K);
            spec.seed ^= (i as u64) << 32;
            let tenant = ["dash", "etl", "batch"][i % 3];
            let mut q = JoinQuery::new(format!("{tenant}-{i}"), spec.generate(), Ns::ZERO);
            if i % 3 == 0 {
                q.deadline = Some(Ns(5e9));
            }
            q
        })
        .collect()
}

/// Deterministic Fisher-Yates driven by a splitmix-style LCG.
fn shuffled(mut queries: Vec<JoinQuery>, seed: u64) -> Vec<JoinQuery> {
    let mut x = seed | 1;
    for i in (1..queries.len()).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = ((x >> 33) as usize) % (i + 1);
        queries.swap(i, j);
    }
    queries
}

/// Every invariant a served result's telemetry must satisfy, regardless
/// of schedule shape: windowed rollups reconcile exactly with run
/// totals, the metrics agree with the counters they are read from and
/// with the typed outcomes, and the per-tenant SLO ledgers partition
/// the terminal outcomes.
fn assert_reconciled(res: &ServeResult) {
    res.telemetry
        .reconcile()
        .expect("window sums must equal run totals exactly");

    // The metrics are read off the telemetry counters.
    assert_eq!(
        res.telemetry.counter("sched.completed"),
        res.metrics.completed
    );
    assert_eq!(res.telemetry.counter("sched.shed"), res.metrics.rejected);
    assert_eq!(
        res.telemetry.counter("sched.grant_revisions"),
        res.metrics.grant_revisions
    );
    assert_eq!(
        res.telemetry.counter("sched.faults"),
        res.metrics.faults_injected
    );
    assert_eq!(res.telemetry.counter("sched.tuples"), res.metrics.tuples);

    // Independently, they agree with the typed per-query outcomes.
    let completed: Vec<_> = res.completed().collect();
    let rejections: Vec<&RejectReason> =
        res.outcomes.iter().filter_map(Outcome::rejection).collect();
    let shed = |f: fn(&RejectReason) -> bool| rejections.iter().filter(|r| f(r)).count() as u64;
    assert_eq!(res.metrics.completed, completed.len() as u64);
    assert_eq!(res.metrics.rejected, rejections.len() as u64);
    assert_eq!(
        res.metrics.shed_deadline,
        shed(|r| matches!(r, RejectReason::DeadlineExceeded { .. }))
    );
    assert_eq!(
        res.metrics.shed_queue_full,
        shed(|r| matches!(r, RejectReason::QueueFull { .. }))
    );
    assert_eq!(
        res.metrics.shed_capacity,
        shed(|r| matches!(r, RejectReason::OverCapacity { .. } | RejectReason::Oom(_)))
    );
    assert_eq!(
        res.metrics.shed_faulted,
        shed(|r| matches!(r, RejectReason::Faulted { .. }))
    );
    assert_eq!(
        res.metrics.tuples,
        completed
            .iter()
            .map(|c| c.report.tuples_actual)
            .sum::<u64>()
    );
    let worst = completed.iter().map(|c| c.latency().0).fold(0.0, f64::max);
    assert_eq!(res.metrics.latency_max.0, worst);

    // The latency stream saw exactly one sample per completion, and its
    // window shards merge back to the run-total histogram.
    let hist = res
        .telemetry
        .histogram("sched.latency_ns")
        .expect("latency histogram must exist");
    assert_eq!(hist.count(), completed.len() as u64);
    let mut merged = Log2Histogram::new();
    for (_, shard) in res.telemetry.histogram_windows("sched.latency_ns") {
        merged.merge(shard);
    }
    assert_eq!(merged.count(), hist.count());
    assert_eq!(merged.sum(), hist.sum());

    // Per-window counter deltas sum to the total for every counter.
    for name in res.telemetry.counter_names() {
        let windows: u64 = res
            .telemetry
            .counter_windows(name)
            .iter()
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(windows, res.telemetry.counter(name), "{name}");
    }

    // SLO ledgers partition the terminal outcomes by tenant.
    let slo_completed: u64 = res.slo.iter().map(|a| a.completed).sum();
    let slo_shed: u64 = res.slo.iter().map(|a| a.shed).sum();
    assert_eq!(slo_completed, res.metrics.completed);
    assert_eq!(slo_shed, res.metrics.rejected);
    for a in &res.slo {
        assert!(a.slo_met <= a.slo_total, "{}", a.tenant);
        assert!(a.attainment_ppm() <= 1_000_000, "{}", a.tenant);
        // Queries bounced off the full queue settle without ever
        // entering it.
        let bounced = res
            .outcomes
            .iter()
            .filter(|o| match o {
                Outcome::Rejected { name, reason, .. } => {
                    tenant_of(name) == a.tenant && matches!(reason, RejectReason::QueueFull { .. })
                }
                Outcome::Completed(_) => false,
            })
            .count() as u64;
        assert_eq!(
            res.telemetry
                .counter(&format!("tenant.{}.enqueued", a.tenant)),
            a.completed + a.shed - bounced,
            "{}",
            a.tenant
        );
    }
}

#[test]
fn clean_run_reconciles_and_matches_scheduler_metrics() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(6, 24));
    assert_eq!(res.metrics.completed, 6);
    assert_reconciled(&res);
    // Exposition carries the counters and is non-trivial.
    let text = res.telemetry.expose_text();
    assert!(text.contains("sched.completed"), "{text}");
    assert!(text.contains("tenant.dash.enqueued"), "{text}");
}

/// Shuffling the submission order changes query ids and tie-breaks, but
/// every order must still reconcile exactly, and order-free aggregates
/// (tenant totals, completion counts) must not move.
#[test]
fn shuffled_submission_orders_all_reconcile() {
    let base = Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(6, 24));
    assert_reconciled(&base);
    for seed in [1u64, 7, 42] {
        let res =
            Scheduler::new(hw(), SchedulerConfig::default()).run(shuffled(tenants(6, 24), seed));
        assert_reconciled(&res);
        assert_eq!(res.metrics.completed, base.metrics.completed, "seed {seed}");
        for t in ["dash", "etl", "batch"] {
            assert_eq!(
                res.telemetry.counter(&format!("tenant.{t}.enqueued")),
                base.telemetry.counter(&format!("tenant.{t}.enqueued")),
                "seed {seed}: tenant {t}"
            );
        }
    }
}

/// A queue too shallow for the burst bounces arrivals before they are
/// ever enqueued; the bounces must still reconcile and settle SLOs.
#[test]
fn queue_full_schedule_reconciles() {
    let config = SchedulerConfig {
        max_inflight: 1,
        max_queue: 2,
        ..SchedulerConfig::default()
    };
    let res = Scheduler::new(hw(), config).run(tenants(6, 24));
    assert!(res.metrics.shed_queue_full > 0, "the burst must bounce");
    assert_reconciled(&res);
}

/// Fault schedules (chaos plans) exercise retries, revocations, shed,
/// and fault counters; the rollups must still reconcile exactly.
#[test]
fn fault_schedules_reconcile() {
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(tenants(5, 24))
        .metrics
        .makespan;
    for seed in [1u64, 2, 3] {
        let plan = FaultPlan::chaos(seed, Ns(horizon.0 * 1.5), &hw());
        let res =
            Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(tenants(5, 24), &plan);
        assert_reconciled(&res);
        assert_eq!(
            res.telemetry.counter("sched.retries"),
            res.metrics.retries,
            "seed {seed}"
        );
    }
}

/// A mid-run GPU memory retirement forces grant revisions (and possibly
/// revocations); the revision counters must agree and the rollups must
/// reconcile.
#[test]
fn grant_revision_schedules_reconcile() {
    let horizon = Scheduler::new(hw(), SchedulerConfig::default())
        .run(tenants(6, 32))
        .metrics
        .makespan;
    let cap = hw().gpu.mem_capacity;
    let plan = FaultPlan::with_seed(9)
        .retire_gpu_mem(Ns(horizon.0 * 0.3), Bytes(cap.0 / 3))
        .retire_gpu_mem(Ns(horizon.0 * 0.6), Bytes(cap.0 / 8));
    let res =
        Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(tenants(6, 32), &plan);
    assert_reconciled(&res);
    assert_eq!(
        res.telemetry.counter("sched.revocations"),
        res.metrics.revocations
    );
    let slo_revisions: u64 = res.slo.iter().map(|a| a.grant_revisions).sum();
    assert!(
        slo_revisions <= res.metrics.grant_revisions,
        "tenant-attributed revisions ({slo_revisions}) can never exceed the total ({})",
        res.metrics.grant_revisions
    );
}

/// The histogram-resolved p50/p99 on a real run agree with the exact
/// nearest-rank percentile of the completed latencies to within one
/// bucket width (<= 6.25% relative error).
#[test]
fn run_percentiles_agree_with_exact_nearest_rank() {
    let res = Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(9, 24));
    let latencies: Vec<f64> = res.completed().map(|c| c.latency().0).collect();
    assert!(!latencies.is_empty());
    for (p, approx) in [(50, res.metrics.latency_p50), (99, res.metrics.latency_p99)] {
        let exact = percentile(&latencies, p as f64);
        let width = Log2Histogram::bucket_width_for(sim_ns(exact)) as f64;
        assert!(
            approx.0 <= exact && exact - approx.0 < width.max(1.0),
            "p{p}: histogram {} vs exact {exact} (width {width})",
            approx.0
        );
    }
}

/// Same seed, same plan: the full text exposition and the SLO accounts
/// replay identically, clean and under chaos.
#[test]
fn expositions_replay_byte_identically() {
    let clean = || Scheduler::new(hw(), SchedulerConfig::default()).run(tenants(5, 24));
    let (a, b) = (clean(), clean());
    assert_eq!(a.telemetry.expose_text(), b.telemetry.expose_text());

    let horizon = a.metrics.makespan;
    let plan = FaultPlan::chaos(5, Ns(horizon.0 * 1.5), &hw());
    let chaos =
        || Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(tenants(5, 24), &plan);
    let (c, d) = (chaos(), chaos());
    assert_eq!(c.telemetry.expose_text(), d.telemetry.expose_text());
    assert_eq!(c.slo, d.slo);
}
