//! Per-layer metrics of the traced run.
//!
//! Host-clock layer figures are self times of spans the benchmark records
//! around calls into each crate's public functions; simulated figures are
//! read from the reports and metrics those calls return. Every traced run
//! reports the whole list; a layer the workload does not exercise reads 0
//! (for example `exec.*` on `join-spill`, which never enters the
//! scheduler).

use std::hint::black_box;

use triton_core::{BucketChainTable, JoinReport, TritonJoin, BUCKET_CHAIN_ENTRIES};
use triton_datagen::Workload;
use triton_exec::{CostCache, JoinQuery, ServeResult};
use triton_hw::{Bound, HwConfig, KernelCost};
use triton_part::{make_partitioner, partition_standalone, Algorithm, PassConfig, Span};

use crate::spans::Spans;
use crate::Metrics;

/// Every per-layer metric with its unit, in reporting order.
pub const NAMES: [(&str, &str); 58] = [
    ("datagen.generate_ms", "ms"),
    ("datagen.tuples", "count"),
    ("part.pass1.host_ms", "ms"),
    ("part.pass1.host_ns_per_tuple", "ns"),
    ("part.pass2.host_ms", "ms"),
    ("part.pass1.sim_ns", "ns"),
    ("part.pass2.sim_ns", "ns"),
    ("part.ps.sim_ns", "ns"),
    ("part.pass1.link_bytes", "bytes"),
    ("part.pass1.tuples_per_txn", "count"),
    ("core.build_probe.host_ms", "ms"),
    ("core.join.sim_ns", "ns"),
    ("core.sched.sim_ns", "ns"),
    ("core.join_sim_err_pct", "%"),
    ("hw.timing.host_ns", "ns"),
    ("hw.link_util_ppm", "ppm"),
    ("hw.iommu_walks", "count"),
    ("hw.bound.interconnect_ns", "ns"),
    ("hw.bound.compute_ns", "ns"),
    ("mem.cache_hit_bytes", "bytes"),
    ("mem.spilled_bytes", "bytes"),
    ("plan.host_ms_per_query", "ms"),
    ("plan.completed", "count"),
    ("exec.cost_cache.key_us", "us"),
    ("exec.cost_cache.hits", "count"),
    ("exec.cost_cache.misses", "count"),
    ("exec.cost_cache.hit_ppm", "ppm"),
    ("exec.build_cache.hits", "count"),
    ("exec.build_cache.prefix_hits", "count"),
    ("exec.build_cache.misses", "count"),
    ("exec.builds_quarantined", "count"),
    ("exec.query_bytes", "bytes"),
    ("exec.query_build_ms", "ms"),
    ("exec.host_us_per_arrival", "us"),
    ("exec.queue_wait_p50_us", "us"),
    ("exec.queue_wait_p99_us", "us"),
    ("exec.service_p50_us", "us"),
    ("exec.shed.deadline", "count"),
    ("exec.shed.queue_full", "count"),
    ("exec.shed.capacity", "count"),
    ("exec.shed.faulted", "count"),
    ("exec.peak_concurrency", "count"),
    ("exec.mean_concurrency_milli", "count"),
    ("exec.grant_revisions", "count"),
    ("exec.retries", "count"),
    ("exec.downgrades", "count"),
    ("exec.faults_injected", "count"),
    ("exec.chaos_slo_attainment_ppm", "ppm"),
    ("metrics.expose_text_us", "us"),
    ("metrics.reconcile_us", "us"),
    ("metrics.exposition_bytes", "bytes"),
    ("trace.events", "count"),
    ("trace.chrome_export_ms", "ms"),
    ("trace.chrome_bytes", "bytes"),
    ("bench.setup.self_ms", "ms"),
    ("bench.measure.self_ms", "ms"),
    ("bench.check.self_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Order `measured` by [`NAMES`], reporting 0 for every layer the
/// workload did not exercise.
pub fn complete(measured: Metrics) -> Metrics {
    for m in &measured.0 {
        assert!(
            NAMES.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "per-layer metric {} ({}) is not in layers::NAMES",
            m.name,
            m.unit
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in NAMES {
        match measured.0.iter().find(|m| m.name == name) {
            Some(m) => out.0.push(m.clone()),
            None => out.sim(name, 0.0, unit),
        }
    }
    out
}

/// Host-clock harness spans every workload reports.
pub fn bench_spans(spans: &Spans, overhead_pct: f64, m: &mut Metrics) {
    m.host("bench.setup.self_ms", spans.self_ms("bench.setup"), "ms");
    m.host(
        "bench.measure.self_ms",
        spans.self_ms("bench.measure"),
        "ms",
    );
    m.host("bench.check.self_ms", spans.self_ms("bench.check"), "ms");
    m.host("bench.trace_overhead_pct", overhead_pct, "%");
}

/// Partition `w` the way the Triton join does — pass 1 Hierarchical
/// CPU→CPU at [`TritonJoin::pass1_bits`], pass 2 Shared GPU→GPU on each
/// pass-1 partition — then build and probe a bucket-chain table per
/// sub-partition pair, each step in its own span. Returns the matches
/// found, which the caller checks against the reference answer.
pub fn partition_and_join(w: &Workload, hw: &HwConfig, spans: &mut Spans, m: &mut Metrics) -> u64 {
    let tuple = triton_datagen::TUPLE_BYTES;
    let r_bytes = w.r.len() as u64 * tuple;
    let b1 = TritonJoin::pass1_bits(r_bytes, r_bytes + w.s.len() as u64 * tuple, hw);
    let pass1 = PassConfig::new(b1, 0);
    let p1 = make_partitioner(Algorithm::Hierarchical);
    let (pr, ps) = spans.time("part.pass1", |_| {
        let (pr, _, _) = partition_standalone(
            p1.as_ref(),
            &w.r.keys,
            &w.r.rids,
            &Span::cpu(0),
            &Span::cpu(1 << 45),
            &pass1,
            hw,
        );
        let (ps, _, _) = partition_standalone(
            p1.as_ref(),
            &w.s.keys,
            &w.s.rids,
            &Span::cpu(1 << 44),
            &Span::cpu(1 << 46),
            &pass1,
            hw,
        );
        (pr, ps)
    });
    let p2 = make_partitioner(Algorithm::Shared);
    let join = TritonJoin::default();
    let pairs: Vec<_> = spans.time("part.pass2", |_| {
        (0..1usize << b1)
            .map(|i| {
                let (rk, rr) = pr.partition(i);
                let (sk, sr) = ps.partition(i);
                let b2 = join.pass2_bits(rk.len());
                if b2 == 0 || rk.is_empty() || sk.is_empty() {
                    return (b2, None);
                }
                let cfg = PassConfig::new(b2, b1);
                let gpu_in = Span::gpu(1 << 47);
                let gpu_out = Span::gpu(1 << 48);
                let (r2, _, _) =
                    partition_standalone(p2.as_ref(), rk, rr, &gpu_in, &gpu_out, &cfg, hw);
                let (s2, _, _) =
                    partition_standalone(p2.as_ref(), sk, sr, &gpu_in, &gpu_out, &cfg, hw);
                (b2, Some((r2, s2)))
            })
            .collect()
    });
    let matches = spans.time("core.build_probe", |_| {
        let mut matches = 0u64;
        let mut join_pair = |rk: &[u64], rr: &[u64], sk: &[u64], skip: u32| {
            if rk.is_empty() || sk.is_empty() {
                return;
            }
            let table = BucketChainTable::build(rk, rr, BUCKET_CHAIN_ENTRIES, skip);
            for &k in sk {
                matches += table.probe_all(k).count() as u64;
            }
        };
        for (i, (b2, sub)) in pairs.iter().enumerate() {
            match sub {
                Some((r2, s2)) => {
                    for j in 0..1usize << b2 {
                        let (rk, rr) = r2.partition(j);
                        let (sk, _) = s2.partition(j);
                        join_pair(rk, rr, sk, b1 + b2);
                    }
                }
                None => {
                    let (rk, rr) = pr.partition(i);
                    let (sk, _) = ps.partition(i);
                    join_pair(rk, rr, sk, b1);
                }
            }
        }
        matches
    });
    let tuples = (w.r.len() + w.s.len()).max(1) as f64;
    let pass1_ms = spans.self_ms("part.pass1");
    m.host("part.pass1.host_ms", pass1_ms, "ms");
    m.host(
        "part.pass1.host_ns_per_tuple",
        pass1_ms * 1e6 / tuples,
        "ns",
    );
    m.host("part.pass2.host_ms", spans.self_ms("part.pass2"), "ms");
    m.host(
        "core.build_probe.host_ms",
        spans.self_ms("core.build_probe"),
        "ms",
    );
    black_box(matches)
}

/// Simulated phase, roofline and placement figures summed over `reports`.
pub fn sim_phases<'a>(
    reports: impl IntoIterator<Item = &'a JoinReport>,
    hw: &HwConfig,
    m: &mut Metrics,
) {
    let (mut pass1, mut pass2, mut ps, mut join, mut sched) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut link_bytes, mut p1_tuples, mut p1_txns) = (0u64, 0.0, 0.0);
    let (mut walks, mut interconnect, mut compute) = (0u64, 0.0, 0.0);
    let (mut util_busy, mut total) = (0.0, 0.0);
    for r in reports {
        walks += r.iommu_walks();
        util_busy += r.link_utilization(hw) * r.total.0;
        total += r.total.0;
        for p in &r.phases {
            let t = p.time.0;
            match p.name.as_str() {
                "Part 1" => {
                    pass1 += t;
                    if let Some(c) = &p.cost {
                        link_bytes += c.link.payload().0;
                        let per_txn = c.tuples_per_txn();
                        if per_txn > 0.0 {
                            p1_tuples += c.tuples_out as f64;
                            p1_txns += c.tuples_out as f64 / per_txn;
                        }
                    }
                }
                "Part 2" | "Part 3" => pass2 += t,
                "PS 1" | "PS 2" => ps += t,
                "Join" => join += t,
                "Sched" => sched += t,
                _ => {}
            }
            match p.timing.map(|tm| tm.bound()) {
                Some(Bound::Interconnect) => interconnect += t,
                Some(Bound::Compute) => compute += t,
                Some(Bound::GpuMemory | Bound::TlbService) | None => {}
            }
        }
    }
    m.sim("part.pass1.sim_ns", pass1, "ns");
    m.sim("part.pass2.sim_ns", pass2, "ns");
    m.sim("part.ps.sim_ns", ps, "ns");
    m.sim("part.pass1.link_bytes", link_bytes as f64, "bytes");
    let per_txn = if p1_txns > 0.0 {
        p1_tuples / p1_txns
    } else {
        0.0
    };
    m.sim("part.pass1.tuples_per_txn", per_txn, "count");
    m.sim("core.join.sim_ns", join, "ns");
    m.sim("core.sched.sim_ns", sched, "ns");
    m.sim("hw.iommu_walks", walks as f64, "count");
    m.sim("hw.bound.interconnect_ns", interconnect, "ns");
    m.sim("hw.bound.compute_ns", compute, "ns");
    let util = if total > 0.0 { util_busy / total } else { 0.0 };
    m.sim("hw.link_util_ppm", (util * 1e6).round(), "ppm");
}

/// Host ns per roofline pricing (`KernelCost::timing`), over every
/// phase cost in `costs`, repeated for at least 20 ms.
pub fn hw_timing(costs: &[&KernelCost], hw: &HwConfig, spans: &mut Spans, m: &mut Metrics) {
    if costs.is_empty() {
        return;
    }
    let calls = spans.time("hw.timing", |_| {
        let t0 = std::time::Instant::now();
        let mut calls = 0u64;
        while calls == 0 || t0.elapsed().as_millis() < 20 {
            for c in costs {
                black_box(c.timing(hw));
            }
            calls += costs.len() as u64;
        }
        calls
    });
    m.host(
        "hw.timing.host_ns",
        spans.self_ms("hw.timing") * 1e6 / calls as f64,
        "ns",
    );
}

/// Host µs per `CostCache::key` over the distinct statements `queries`.
pub fn cost_key(queries: &[&JoinQuery], spans: &mut Spans, m: &mut Metrics) {
    if queries.is_empty() {
        return;
    }
    spans.time("exec.cost_cache.key", |_| {
        for q in queries {
            black_box(CostCache::key(q, &q.op));
        }
    });
    let per = spans.self_ms("exec.cost_cache.key") * 1e3 / queries.len() as f64;
    m.host("exec.cost_cache.key_us", per, "us");
}

/// Telemetry exposition and Chrome trace export of one serving point.
pub fn telemetry_and_trace(res: &ServeResult, spans: &mut Spans, m: &mut Metrics) {
    let text = spans.time("metrics.expose_text", |_| res.telemetry.expose_text());
    let reconciled = spans.time("metrics.reconcile", |_| res.telemetry.reconcile().is_ok());
    assert!(
        reconciled,
        "telemetry windows failed to reconcile with run totals"
    );
    let chrome = spans.time("trace.chrome_export", |_| {
        triton_exec::to_chrome_json(&res.trace)
    });
    m.host(
        "metrics.expose_text_us",
        spans.self_ms("metrics.expose_text") * 1e3,
        "us",
    );
    m.host(
        "metrics.reconcile_us",
        spans.self_ms("metrics.reconcile") * 1e3,
        "us",
    );
    m.sim("metrics.exposition_bytes", text.len() as f64, "bytes");
    m.sim("trace.events", res.trace.len() as f64, "count");
    m.host(
        "trace.chrome_export_ms",
        spans.self_ms("trace.chrome_export"),
        "ms",
    );
    m.sim("trace.chrome_bytes", chrome.len() as f64, "bytes");
}
