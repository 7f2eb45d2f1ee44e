//! `join-spill`: closed loop, one client, back-to-back out-of-core Triton
//! joins at the paper's 2048 M-tuple-per-relation point (Fig 13).
//!
//! Host time sits in partitioning pass 1; simulated time in the
//! interconnect-bound pass-1 and second-pass prefix-sum phases. The
//! scheduler, telemetry and trace crates are never entered, so a
//! scheduler-side change must leave every figure here unchanged.

use std::hint::black_box;
use std::time::Instant;

use triton_core::{reference_join, JoinReport, TritonJoin};
use triton_datagen::{Workload, WorkloadSpec};
use triton_hw::HwConfig;

use crate::digest::Digest;
use crate::spans::Spans;
use crate::{
    derive_seed, layers, median, peak_heap_mib, ppm, secs, Metrics, RunResult, Sizing,
    DEADLINE_SERVICE_TIMES, PAPER_FIG13_GTPS, SUSTAINED_PPM,
};

/// What a closed loop measured.
struct Loop {
    /// Host seconds of each join.
    host_s: Vec<f64>,
    /// Digest of each join's report (all must equal the first).
    digests: Vec<u64>,
    /// Functional result of each join.
    results: Vec<triton_core::JoinResult>,
    /// The first join's report.
    first: Option<JoinReport>,
}

/// Back-to-back joins until `seconds` have passed (at least one).
fn closed_loop(w: &Workload, hw: &HwConfig, seconds: f64, spans: &mut Spans, out: &mut Loop) {
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        let rep = spans.time("core.triton_join", |_| {
            TritonJoin::default().run(black_box(w), hw)
        });
        out.host_s.push(secs(t));
        let mut d = Digest::default();
        d.report(&rep);
        out.digests.push(d.finish());
        out.results.push(rep.result);
        out.first.get_or_insert(rep);
        if secs(t0) >= seconds {
            break;
        }
    }
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, sizing: &Sizing) -> RunResult {
    let hw = HwConfig::ac922().scaled(sizing.k);
    let mut spans = Spans::new(seed, trace);
    let mut spec = WorkloadSpec::paper_default(sizing.join_m, sizing.k);
    spec.seed = derive_seed(seed, 1);

    // Set-up: generate the relations and warm up with one join.
    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut w = None;
    for _ in 0..sizing.setup_reps.max(1) {
        drop(w.take());
        let t0 = Instant::now();
        let (wl, g) = spans.time("bench.setup", |sp| {
            let t = Instant::now();
            let wl = sp.time("datagen.generate", |_| spec.generate());
            let g = secs(t);
            sp.time("bench.warmup", |_| {
                black_box(TritonJoin::default().run(&wl, &hw))
            });
            (wl, g)
        });
        setup_s.push(secs(t0));
        gen_ms.push(g * 1e3);
        w = Some(wl);
    }
    let w = w.expect("at least one set-up ran");

    // Measurement. A traced run measures half its time with spans off and
    // half with them on, so the difference is the tracing overhead.
    let mut lp = Loop {
        host_s: Vec::new(),
        digests: Vec::new(),
        results: Vec::new(),
        first: None,
    };
    let mut overhead_pct = 0.0;
    if trace {
        spans.set_enabled(false);
        closed_loop(&w, &hw, seconds / 2.0, &mut spans, &mut lp);
        let untraced = median(&lp.host_s);
        let n = lp.host_s.len();
        spans.set_enabled(true);
        spans.time("bench.measure", |sp| {
            closed_loop(&w, &hw, seconds / 2.0, sp, &mut lp)
        });
        overhead_pct = (median(&lp.host_s[n..]) / untraced - 1.0) * 100.0;
    } else {
        closed_loop(&w, &hw, seconds, &mut spans, &mut lp);
    }
    let rep = lp
        .first
        .take()
        .expect("the closed loop ran at least one join");

    // The high-water mark of the joins themselves, read before the answer
    // check builds its reference.
    let heap_mib = peak_heap_mib();

    // Answer check, outside every timed region.
    let reference = spans.time("bench.check", |sp| {
        sp.time("core.reference_join", |_| reference_join(&w))
    });
    let attempted = lp.results.len() as u64;
    let correct = lp.results.iter().filter(|r| **r == reference).count() as u64;
    let drifted = lp.digests.iter().filter(|d| **d != lp.digests[0]).count() as u64;

    // Closed loop, one client: every join's latency is its own dedicated
    // service time, and the offered load is the serial drain rate (1.0).
    // Every join of the loop is the same statement, so p50 and p99 are
    // one value. The deadline is DEADLINE_SERVICE_TIMES service times at
    // the paper's Fig 13 rate, independent of the join being checked, so a
    // join that much slower than the paper misses it.
    let latency_us = rep.total.0 / 1e3;
    let deadline_ns = DEADLINE_SERVICE_TIMES * rep.tuples_actual as f64 / PAPER_FIG13_GTPS;
    let met = if rep.total.0 <= deadline_ns {
        correct
    } else {
        0
    };
    let attainment = ppm(met, attempted);
    let host = median(&lp.host_s);
    let mut e2e = Metrics::default();
    e2e.host("setup_s", median(&setup_s), "s");
    e2e.host("peak_heap_mib", heap_mib, "MiB");
    e2e.sim("ok_ppm", ppm(correct, attempted), "ppm");
    e2e.host("host_qps", 1.0 / host, "1/s");
    e2e.host(
        "host_mtuples_per_s",
        rep.tuples_actual as f64 / host / 1e6,
        "Mtuples/s",
    );
    e2e.sim("sim_gtps", rep.throughput_gtps(), "Gtuples/s");
    e2e.sim("sim_p50_us", latency_us, "us");
    e2e.sim("sim_p99_us", latency_us, "us");
    e2e.sim("slo_attainment_ppm", attainment, "ppm");
    let max_load = if attainment as u64 >= SUSTAINED_PPM {
        1.0
    } else {
        0.0
    };
    e2e.sim("max_load", max_load, "x");

    let mut layers_m = Metrics::default();
    let mut probe_wrong = 0;
    if trace {
        let matches = spans.time("bench.probe", |sp| {
            let mut m = Metrics::default();
            let found = layers::partition_and_join(&w, &hw, sp, &mut m);
            let costs: Vec<_> = rep.phases.iter().filter_map(|p| p.cost.as_ref()).collect();
            layers::hw_timing(&costs, &hw, sp, &mut m);
            layers_m = m;
            found
        });
        let m = &mut layers_m;
        m.host("datagen.generate_ms", median(&gen_ms), "ms");
        m.sim("datagen.tuples", (w.r.len() + w.s.len()) as f64, "count");
        layers::sim_phases([&rep], &hw, m);
        let err = (rep.throughput_gtps() - PAPER_FIG13_GTPS).abs() / PAPER_FIG13_GTPS * 100.0;
        m.sim("core.join_sim_err_pct", err, "%");
        if let Some(pl) = &rep.placement {
            m.sim("mem.cache_hit_bytes", pl.cache_hit_bytes as f64, "bytes");
            m.sim("mem.spilled_bytes", pl.spilled_bytes as f64, "bytes");
        }
        layers::bench_spans(&spans, overhead_pct, m);
        if matches != reference.matches {
            eprintln!(
                "layer probe found {matches} matches, reference {}",
                reference.matches
            );
            probe_wrong = 1;
        }
    }

    let mut sim = Digest::default();
    sim.report(&rep);
    let mut input = Digest::default();
    input.relation(&w.r);
    input.relation(&w.s);
    RunResult {
        attempted,
        failed: (attempted - correct) + drifted + probe_wrong,
        e2e,
        layers: if trace {
            layers::complete(layers_m)
        } else {
            Metrics::default()
        },
        sim_digest: sim.finish(),
        input_digest: input.finish(),
        spans,
    }
}
