//! `serve-repeat` and `serve-cold`: open-loop serving on the throughput
//! path (`SchedulerConfig::throughput`).
//!
//! Both sweep the offered-load axis [`LOADS`] — one unit is the serial
//! drain rate, 1 / mean dedicated service time — and add one chaos point
//! at load 1.0 with the standard hazard shape (a halved link, an ECC
//! retirement of a third of device memory and a kernel fault, placed from
//! the arrival schedule). Every query carries a deadline of
//! [`DEADLINE_SERVICE_TIMES`] mean service times.
//!
//! The statement mixes are the tenant mixes of the committed serving
//! trajectory (`fig_serve`): arrival `i` takes the tenant role `fig_serve`
//! gives query `i % 18` of its 18-query cycle ([`role`]).
//!
//! * `serve-repeat` replays the `shared` mix: probe batches over a build
//!   family (the cycle's first one the family's full build), radix-range
//!   slices of it, and fact joins. Cycle `n` runs on build family `n % 4`
//!   and every cycle of a family submits the same statements, so nearly
//!   every pricing hits the cost cache and host time is cost-key hashing
//!   and owned workload copies.
//! * `serve-cold` follows the `mixed` mix, but makes every arrival of a
//!   point a distinct statement with no build key. A cold statement has
//!   no resident build to share, so the build-sharing roles become the
//!   operators this workload adds: batch positions run Triton on a fresh
//!   relation pair, slice positions TPC-H Q3/Q9 plans, fact positions
//!   skew-aware Triton on Zipf keys, and CPU positions CPU radix. The memo
//!   hit ratio is about 0, so host time is join and plan execution.

use std::hint::black_box;
use std::time::Instant;

use triton_core::{reference_join, AggregateResult, CpuRadixJoin, HashScheme, JoinResult};
use triton_datagen::{Rng, TpchSpec, WorkloadSpec};
use triton_exec::{
    CompletedQuery, FaultPlan, JoinQuery, Operator, Outcome, Scheduler, SchedulerConfig,
    ServeResult,
};
use triton_hw::units::Ns;
use triton_hw::HwConfig;
use triton_plan::{reference_plan, tpch_query};

use crate::digest::Digest;
use crate::spans::Spans;
use crate::{
    derive_seed, layers, median, peak_heap_mib, percentile, ppm, secs, Metrics, RunResult, Sizing,
    WorkloadKind, DEADLINE_SERVICE_TIMES, SUSTAINED_PPM,
};

/// Offered-load axis, in units of the serial drain rate.
pub const LOADS: [f64; 5] = [0.5, 1.0, 1.25, 1.5, 2.0];

/// Load of the latency figures and of the chaos point.
const REF_LOAD: f64 = 1.0;

/// Load of the throughput figure: the highest on the axis short of 2×
/// overload, where which queries miss their deadlines (and so the
/// completed work) swings with small changes in the inputs.
const SAT_LOAD: f64 = 1.5;

/// Fixed seed of the arrival schedules and statement mixes: they belong
/// to the workload definition, not to the run seed.
const SHAPE_SEED: u64 = 0x5E12E;

/// Queries per tenant-mix cycle (`fig_serve`'s queries per point).
const CYCLE: usize = 18;

/// `serve-cold` statements whose dedicated times calibrate the load unit:
/// whole cycles, so every role has its share.
const COLD_CALIBRATION: usize = 4 * CYCLE;

/// Arrivals of the warm-up run in each set-up.
const WARMUP_ARRIVALS: usize = 32;

/// Build families of `serve-repeat`.
const FAMILIES: usize = 4;

/// Radix range of the slice tenants: the low half of the build's radix
/// space, as in `fig_serve`.
const SLICE_RANGE: (u32, u32) = (0, 128);

/// Tenant role of a position in `fig_serve`'s 18-query cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The family's full build (the cycle's first probe batch).
    Full,
    /// A probe batch against the family's build side.
    Batch,
    /// A join against a radix sub-range of the family's build side.
    Slice,
    /// An independent fact-to-fact join.
    Fact,
    /// An ad-hoc CPU radix join (`mixed` only).
    Cpu,
}

/// `fig_serve::tenant_mix`'s rule: in the `mixed` mix every third query
/// is a CPU tenant; otherwise even positions are probe batches (position
/// 0 the full build), positions 3 mod 4 slices and the rest fact joins.
fn role(c: usize, mixed: bool) -> Role {
    if mixed && c % 3 == 2 {
        Role::Cpu
    } else if c.is_multiple_of(2) {
        if c == 0 {
            Role::Full
        } else {
            Role::Batch
        }
    } else if c % 4 == 3 {
        Role::Slice
    } else {
        Role::Fact
    }
}

/// The answer a statement must produce.
#[derive(Debug, Clone, Copy)]
enum Answer {
    Join(JoinResult),
    Plan(AggregateResult),
}

impl Answer {
    fn of(q: &JoinQuery) -> Answer {
        match &q.op {
            Operator::Plan(p) => Answer::Plan(reference_plan(p.plan(), p.inputs())),
            _ => Answer::Join(reference_join(&q.workload)),
        }
    }

    /// Whether a completed query's functional result is this answer
    /// (a plan reports its group count and sum digest there).
    fn matches(&self, got: &JoinResult) -> bool {
        match self {
            Answer::Join(r) => got == r,
            Answer::Plan(a) => got.matches == a.groups && got.checksum == a.sum_digest,
        }
    }
}

/// One point of the sweep.
struct Point {
    load: f64,
    chaos: bool,
    /// Arrival times, ns.
    arrivals: Vec<f64>,
    /// Statement of each arrival (index into the catalogue).
    picks: Vec<usize>,
    faults: FaultPlan,
}

/// Statements plus the calibrated load unit.
struct Setup {
    /// Query templates: arrival 0, no deadline.
    stmts: Vec<JoinQuery>,
    /// Mean dedicated service time: the inverse of one unit of load.
    mean_service: Ns,
    gen_ms: f64,
    generated_tuples: u64,
}

/// Generate the statement catalogue of `kind`. `serve-repeat`: statement
/// `f * CYCLE + c` is position `c` of family `f`'s cycle. `serve-cold`:
/// statement `j` is arrival `j`.
fn catalogue(kind: WorkloadKind, seed: u64, sizing: &Sizing) -> Vec<JoinQuery> {
    let k = sizing.k;
    match kind {
        WorkloadKind::ServeRepeat => {
            let mut out = Vec::with_capacity(FAMILIES * CYCLE);
            for f in 0..FAMILIES as u64 {
                let mut spec = WorkloadSpec::paper_default(sizing.family_m, k);
                spec.seed = derive_seed(seed, 100 + f);
                let base = spec.generate();
                let slice = JoinQuery::probe_slice(&base, SLICE_RANGE, derive_seed(seed, 300 + f));
                for c in 0..CYCLE {
                    let salt = 32 * f + c as u64;
                    let r = role(c, false);
                    let w = match r {
                        Role::Full => base.clone(),
                        Role::Batch => JoinQuery::probe_batch(&base, derive_seed(seed, 200 + salt)),
                        Role::Slice => slice.clone(),
                        Role::Fact => {
                            let mut spec = WorkloadSpec::paper_default(sizing.fact_m, k);
                            spec.seed = derive_seed(seed, 400 + salt);
                            spec.generate()
                        }
                        Role::Cpu => unreachable!("the shared mix has no CPU tenants"),
                    };
                    let mut q =
                        JoinQuery::new(format!("{r:?}-{f}-{c}").to_lowercase(), w, Ns::ZERO);
                    if r != Role::Fact {
                        q.build_key = Some(f + 1);
                    }
                    if r == Role::Slice {
                        q.build_range = Some(SLICE_RANGE);
                    }
                    out.push(q);
                }
            }
            out
        }
        WorkloadKind::ServeCold => (0..sizing.ref_arrivals)
            .map(|j| {
                let data_seed = derive_seed(seed, 1000 + j as u64);
                // The seed also draws each statement's exact size, up to
                // 1/128 above its nominal one.
                let sized = |modeled: u64| modeled + modeled / 128 * (data_seed % 1024) / 1024;
                let join = |mut spec: WorkloadSpec, name: &str, op: Operator| {
                    spec.seed = data_seed;
                    spec.r_tuples_modeled = sized(spec.r_tuples_modeled);
                    spec.s_tuples_modeled = sized(spec.s_tuples_modeled);
                    let mut q = JoinQuery::new(format!("{name}-{j}"), spec.generate(), Ns::ZERO);
                    q.op = op;
                    q
                };
                match role(j % CYCLE, true) {
                    Role::Full | Role::Batch => join(
                        WorkloadSpec::paper_default(sizing.dim_m, k),
                        "triton",
                        Operator::triton(),
                    ),
                    Role::Slice => {
                        let mut spec = if (j / CYCLE).is_multiple_of(2) {
                            TpchSpec::q3(sizing.dim_m, k)
                        } else {
                            TpchSpec::q9(sizing.dim_m, k)
                        };
                        spec.seed = data_seed;
                        spec.lineitem_tuples_modeled = sized(spec.lineitem_tuples_modeled);
                        JoinQuery::plan(format!("plan-{j}"), tpch_query(&spec.generate()), Ns::ZERO)
                    }
                    Role::Fact => join(
                        WorkloadSpec::skewed(sizing.fact_m, 1.0, k),
                        "skew",
                        Operator::triton_skew_aware(),
                    ),
                    Role::Cpu => join(
                        WorkloadSpec::paper_default(sizing.dim_m, k),
                        "cpu",
                        Operator::CpuRadix(CpuRadixJoin::power9(HashScheme::BucketChaining)),
                    ),
                }
            })
            .collect(),
        WorkloadKind::JoinSpill => unreachable!("join-spill is not a serving workload"),
    }
}

/// Statements picked by the `n` arrivals of a point. `serve-repeat`:
/// arrival `i` is position `i % CYCLE` of cycle `i / CYCLE`, which runs on
/// family `(i / CYCLE) % FAMILIES`. `serve-cold`: the first `n` distinct
/// statements.
fn picks(kind: WorkloadKind, n: usize) -> Vec<usize> {
    match kind {
        WorkloadKind::ServeRepeat => (0..n)
            .map(|i| (i / CYCLE) % FAMILIES * CYCLE + i % CYCLE)
            .collect(),
        _ => (0..n).collect(),
    }
}

/// Dedicated simulated service time of a statement.
fn dedicated(q: &JoinQuery, hw: &HwConfig) -> f64 {
    q.op.run(&q.workload, hw).map_or(0.0, |r| r.total.0)
}

/// Poisson arrivals at `load` × the drain rate of `mean_service`, from a
/// schedule fixed by the workload definition.
fn arrivals(n: usize, load: f64, mean_service: Ns, salt: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(SHAPE_SEED ^ load.to_bits() ^ salt);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() * mean_service.0 / load;
            t
        })
        .collect()
}

/// The sweep: every load on the axis, then the chaos point.
fn points(kind: WorkloadKind, setup: &Setup, hw: &HwConfig, sizing: &Sizing) -> Vec<Point> {
    let mut out = Vec::new();
    for (i, &load) in LOADS.iter().chain(&[REF_LOAD]).enumerate() {
        let chaos = i == LOADS.len();
        let n = if load == REF_LOAD && !chaos {
            sizing.ref_arrivals
        } else {
            sizing.point_arrivals
        };
        let salt = u64::from(chaos);
        let arr = arrivals(n, load, setup.mean_service, salt);
        let faults = if chaos {
            let span = Ns(*arr.last().expect("a point has arrivals"));
            let strike = Ns(arr[n / 2]);
            FaultPlan::with_seed(SHAPE_SEED)
                .degrade_link(Ns::ZERO, span * 4.0, 0.5)
                .retire_gpu_mem(strike, hw.gpu.mem_capacity / 3)
                .kernel_fault(strike)
        } else {
            FaultPlan::none()
        };
        out.push(Point {
            load,
            chaos,
            arrivals: arr,
            picks: picks(kind, n),
            faults,
        });
    }
    out
}

/// The query vector a point submits.
fn queries(setup: &Setup, p: &Point) -> Vec<JoinQuery> {
    let deadline = setup.mean_service * DEADLINE_SERVICE_TIMES;
    p.picks
        .iter()
        .zip(&p.arrivals)
        .map(|(&s, &at)| {
            let mut q = setup.stmts[s].clone();
            q.arrival = Ns(at);
            q.deadline = Some(deadline);
            q
        })
        .collect()
}

/// Bytes of relation data a query vector owns.
fn owned_bytes(qs: &[JoinQuery]) -> u64 {
    let rel = |n: usize| n as u64 * 16;
    qs.iter()
        .map(|q| {
            let plan = match &q.op {
                Operator::Plan(p) => p.inputs().iter().map(|r| rel(r.len())).sum(),
                _ => 0,
            };
            rel(q.workload.r.len()) + rel(q.workload.s.len()) + plan
        })
        .sum()
}

/// Generate, calibrate and warm up once.
fn set_up(
    kind: WorkloadKind,
    seed: u64,
    hw: &HwConfig,
    sizing: &Sizing,
    spans: &mut Spans,
) -> Setup {
    spans.time("bench.setup", |sp| {
        let t = Instant::now();
        let stmts = sp.time("datagen.generate", |_| catalogue(kind, seed, sizing));
        let gen_ms = secs(t) * 1e3;
        let generated_tuples = stmts.iter().map(JoinQuery::tuples).sum();
        let mean_service = sp.time("bench.calibrate", |_| {
            let sample: Vec<usize> = match kind {
                WorkloadKind::ServeRepeat => picks(kind, sizing.ref_arrivals),
                _ => (0..COLD_CALIBRATION.min(stmts.len())).collect(),
            };
            let mut cost = vec![None; stmts.len()];
            let total: f64 = sample
                .iter()
                .map(|&s| *cost[s].get_or_insert_with(|| dedicated(&stmts[s], hw)))
                .sum();
            Ns(total / sample.len().max(1) as f64)
        });
        let setup = Setup {
            stmts,
            mean_service,
            gen_ms,
            generated_tuples,
        };
        sp.time("bench.warmup", |_| {
            let n = WARMUP_ARRIVALS.min(sizing.ref_arrivals);
            let warm = Point {
                load: REF_LOAD,
                chaos: false,
                arrivals: arrivals(n, REF_LOAD, mean_service, 0),
                picks: picks(kind, n),
                faults: FaultPlan::none(),
            };
            let qs = queries(&setup, &warm);
            black_box(Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run(qs));
        });
        setup
    })
}

/// Deterministic summary of one served point.
#[derive(Debug, Default)]
struct PointStats {
    load: f64,
    chaos: bool,
    submitted: u64,
    completed: u64,
    tuples: u64,
    attainment_ppm: f64,
    throughput_gtps: f64,
    /// Host seconds inside this point's `Scheduler::run`.
    run_s: f64,
    latency_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
    metrics: Option<triton_exec::SchedulerMetrics>,
    digest: u64,
}

/// Everything one sweep measured.
#[derive(Debug, Default)]
struct Sweep {
    points: Vec<PointStats>,
    /// Host seconds inside `Scheduler::run`, summed over points.
    run_s: f64,
    /// Host seconds building query vectors, summed over points.
    build_s: f64,
    /// Bytes owned by the load-1.0 query vector.
    ref_query_bytes: u64,
    /// `(statement, result)` of every completed query, for the answer check.
    answers: Vec<(usize, JoinResult)>,
}

impl Sweep {
    fn decided(&self) -> u64 {
        self.points.iter().map(|p| p.submitted).sum()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for p in &self.points {
            d.u64(p.digest);
        }
        d.finish()
    }

    fn tuples(&self) -> u64 {
        self.points.iter().map(|p| p.tuples).sum()
    }

    fn point(&self, load: f64, chaos: bool) -> &PointStats {
        self.points
            .iter()
            .find(|p| p.load == load && p.chaos == chaos)
            .expect("the sweep covers every point")
    }
}

/// Host seconds of a typical sweep: each point's median `Scheduler::run`
/// time across `sweeps`, summed. Every run of a point does identical
/// work, so the median filters bursts of interference from other tenants
/// of the host.
fn typical_run_s(sweeps: &[Sweep]) -> f64 {
    (0..sweeps[0].points.len())
        .map(|i| median(&sweeps.iter().map(|s| s.points[i].run_s).collect::<Vec<_>>()))
        .sum()
}

/// Fold one served point into its summary and feed the digest every
/// simulated statistic: outcomes, scheduler metrics, SLO accounts and the
/// telemetry exposition.
fn summarize(
    p: &Point,
    res: &ServeResult,
    stmts: &[JoinQuery],
    answers: &mut Vec<(usize, JoinResult)>,
) -> PointStats {
    let mut d = Digest::default();
    let mut st = PointStats {
        load: p.load,
        chaos: p.chaos,
        submitted: res.outcomes.len() as u64,
        ..PointStats::default()
    };
    for o in &res.outcomes {
        match o {
            Outcome::Completed(c) => {
                let CompletedQuery {
                    id,
                    start,
                    finish,
                    arrival,
                    report,
                    ..
                } = c.as_ref();
                let s = p.picks[id.0 as usize];
                answers.push((s, report.result));
                st.completed += 1;
                st.tuples += stmts[s].tuples();
                st.latency_us.push((*finish - *arrival).0 / 1e3);
                st.queue_wait_us.push((*start - *arrival).0 / 1e3);
                st.service_us.push((*finish - *start).0 / 1e3);
                d.u64(id.0);
                d.f64(start.0);
                d.f64(finish.0);
                d.f64(c.dedicated.0);
                d.str(c.operator);
                d.u64(c.reserved.0);
                d.u64(u64::from(c.build_cache_hit));
                d.report(report);
            }
            Outcome::Rejected { id, reason, .. } => {
                d.u64(id.0);
                d.str(&reason.to_string());
            }
        }
    }
    let (total, met) = res
        .slo
        .iter()
        .fold((0, 0), |(t, m), a| (t + a.slo_total, m + a.slo_met));
    st.attainment_ppm = ppm(met, total);
    st.throughput_gtps = res.metrics.throughput_gtps;
    d.str(&res.metrics.to_json());
    d.str(&format!("{:?}", res.slo));
    d.str(&res.telemetry.expose_text());
    st.metrics = Some(res.metrics.clone());
    st.digest = d.finish();
    st
}

/// Serve every point once. With `keep_ref`, the load-1.0 result is kept
/// for the traced run's telemetry and trace probes.
fn sweep(
    hw: &HwConfig,
    setup: &Setup,
    pts: &[Point],
    spans: &mut Spans,
    keep_ref: bool,
) -> (Sweep, Option<ServeResult>) {
    let mut out = Sweep::default();
    let mut kept = None;
    for p in pts {
        let t = Instant::now();
        let qs = spans.time("exec.build_queries", |_| queries(setup, p));
        out.build_s += secs(t);
        let is_ref = p.load == REF_LOAD && !p.chaos;
        if is_ref {
            out.ref_query_bytes = owned_bytes(&qs);
        }
        let t = Instant::now();
        let res = spans.time("exec.run", |_| {
            Scheduler::new(hw.clone(), SchedulerConfig::throughput()).run_with_faults(qs, &p.faults)
        });
        let run_s = secs(t);
        out.run_s += run_s;
        let mut st = summarize(p, &res, &setup.stmts, &mut out.answers);
        st.run_s = run_s;
        out.points.push(st);
        if is_ref && keep_ref {
            kept = Some(res);
        }
    }
    (out, kept)
}

/// Run the workload.
pub fn run(kind: WorkloadKind, seed: u64, seconds: f64, trace: bool, sizing: &Sizing) -> RunResult {
    let hw = HwConfig::ac922().scaled(sizing.k);
    let mut spans = Spans::new(seed, trace);

    let (mut setup_s, mut gen_ms) = (Vec::new(), Vec::new());
    let mut setup = None;
    for _ in 0..sizing.setup_reps.max(1) {
        drop(setup.take());
        let t = Instant::now();
        let st = set_up(kind, seed, &hw, sizing, &mut spans);
        setup_s.push(secs(t));
        gen_ms.push(st.gen_ms);
        setup = Some(st);
    }
    let setup = setup.expect("at least one set-up ran");
    let pts = points(kind, &setup, &hw, sizing);

    // Measurement: whole sweeps until `seconds` have passed (at least
    // one). A traced run sweeps half its time with spans off and half
    // with them on.
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut kept = None;
    let mut overhead_pct = 0.0;
    let measure = |spans: &mut Spans,
                   budget: f64,
                   sweeps: &mut Vec<Sweep>,
                   kept: &mut Option<ServeResult>| {
        let t0 = Instant::now();
        loop {
            let (s, k) = sweep(&hw, &setup, &pts, spans, trace && kept.is_none());
            if k.is_some() {
                *kept = k;
            }
            eprintln!(
                "sweep {}: {} decided in {:.3} s of Scheduler::run ({:.3} s building queries)",
                sweeps.len(),
                s.decided(),
                s.run_s,
                s.build_s
            );
            sweeps.push(s);
            if secs(t0) >= budget {
                break;
            }
        }
    };
    if trace {
        spans.set_enabled(false);
        measure(&mut spans, seconds / 2.0, &mut sweeps, &mut kept);
        let n = sweeps.len();
        spans.set_enabled(true);
        spans.time("bench.measure", |sp| {
            measure(sp, seconds / 2.0, &mut sweeps, &mut kept)
        });
        overhead_pct = (typical_run_s(&sweeps[n..]) / typical_run_s(&sweeps[..n]) - 1.0) * 100.0;
    } else {
        measure(&mut spans, seconds, &mut sweeps, &mut kept);
    }

    // The high-water mark of the workload itself, read before the answer
    // check builds its references.
    let heap_mib = peak_heap_mib();

    // Answer check, outside every timed region: each distinct statement's
    // reference is computed once.
    let (attempted, correct) = spans.time("bench.check", |sp| {
        let mut refs: Vec<Option<Answer>> = vec![None; setup.stmts.len()];
        let mut correct = 0u64;
        for s in &sweeps {
            for &(stmt, result) in &s.answers {
                let ans = refs[stmt].get_or_insert_with(|| {
                    sp.time("core.reference", |_| Answer::of(&setup.stmts[stmt]))
                });
                correct += u64::from(ans.matches(&result));
            }
        }
        (sweeps.iter().map(Sweep::decided).sum::<u64>(), correct)
    });
    let completed = sweeps.iter().map(|s| s.answers.len() as u64).sum::<u64>();
    let first = &sweeps[0];
    let drifted = sweeps
        .iter()
        .filter(|s| s.digest() != first.digest())
        .count() as u64;

    let rf = first.point(REF_LOAD, false);
    let sat = first.point(SAT_LOAD, false);
    // The highest load up to which every load on the axis is sustained.
    let max_load = LOADS
        .iter()
        .copied()
        .take_while(|&l| first.point(l, false).attainment_ppm as u64 >= SUSTAINED_PPM)
        .last()
        .unwrap_or(0.0);
    let host_s = typical_run_s(&sweeps);
    let mut e2e = Metrics::default();
    e2e.host("setup_s", median(&setup_s), "s");
    e2e.host("peak_heap_mib", heap_mib, "MiB");
    e2e.sim("ok_ppm", ppm(correct, attempted), "ppm");
    e2e.host("host_qps", first.decided() as f64 / host_s, "1/s");
    e2e.host(
        "host_mtuples_per_s",
        first.tuples() as f64 / host_s / 1e6,
        "Mtuples/s",
    );
    e2e.sim("sim_gtps", sat.throughput_gtps, "Gtuples/s");
    e2e.sim("sim_p50_us", percentile(&rf.latency_us, 50.0), "us");
    e2e.sim("sim_p99_us", percentile(&rf.latency_us, 99.0), "us");
    e2e.sim("slo_attainment_ppm", rf.attainment_ppm, "ppm");
    e2e.sim("max_load", max_load, "x");

    let mut probe_ok = true;
    let layers_m = if trace {
        let mut m = Metrics::default();
        let res = kept
            .as_ref()
            .expect("a traced run keeps the load-1.0 result");
        probe_ok = spans.time("bench.probe", |sp| {
            probe_layers(kind, &hw, &setup, first, res, sp, &mut m)
        });
        m.host("datagen.generate_ms", median(&gen_ms), "ms");
        m.sim("datagen.tuples", setup.generated_tuples as f64, "count");
        m.host(
            "exec.host_us_per_arrival",
            host_s * 1e6 / first.decided() as f64,
            "us",
        );
        m.host("exec.query_build_ms", first.build_s * 1e3, "ms");
        m.sim("exec.query_bytes", first.ref_query_bytes as f64, "bytes");
        scheduler_layers(first, &mut m);
        layers::bench_spans(&spans, overhead_pct, &mut m);
        layers::complete(m)
    } else {
        Metrics::default()
    };

    let mut input = Digest::default();
    for q in &setup.stmts {
        input.relation(&q.workload.r);
        input.relation(&q.workload.s);
        if let Operator::Plan(p) = &q.op {
            p.inputs().iter().for_each(|r| input.relation(r));
        }
    }
    RunResult {
        attempted,
        failed: completed - correct + drifted + u64::from(!probe_ok),
        e2e,
        layers: layers_m,
        sim_digest: first.digest(),
        input_digest: input.finish(),
        spans,
    }
}

/// Host-clock layer probes on the workload's own statements and the
/// load-1.0 result. Returns whether the partition/build/probe pass found
/// the reference number of matches.
fn probe_layers(
    kind: WorkloadKind,
    hw: &HwConfig,
    setup: &Setup,
    first: &Sweep,
    res: &ServeResult,
    sp: &mut Spans,
    m: &mut Metrics,
) -> bool {
    // Partitioning and build/probe on the largest plain-join statement.
    let probe_ok = setup
        .stmts
        .iter()
        .filter(|q| !matches!(q.op, Operator::Plan(_)))
        .max_by_key(|q| q.workload.total_tuples())
        .is_none_or(|q| {
            let found = layers::partition_and_join(&q.workload, hw, sp, m);
            let expected = sp.time("bench.check", |_| reference_join(&q.workload).matches);
            found == expected
        });
    let completed: Vec<&CompletedQuery> = res.completed().collect();
    let costs: Vec<_> = completed
        .iter()
        .flat_map(|c| c.report.phases.iter().filter_map(|p| p.cost.as_ref()))
        .collect();
    layers::hw_timing(&costs, hw, sp, m);
    layers::sim_phases(completed.iter().map(|c| &c.report), hw, m);
    let distinct: Vec<&JoinQuery> = match kind {
        WorkloadKind::ServeRepeat => setup.stmts.iter().collect(),
        _ => setup.stmts.iter().take(COLD_CALIBRATION).collect(),
    };
    layers::cost_key(&distinct, sp, m);
    let plans: Vec<&JoinQuery> = setup
        .stmts
        .iter()
        .filter(|q| matches!(q.op, Operator::Plan(_)))
        .take(COLD_CALIBRATION)
        .collect();
    if !plans.is_empty() {
        sp.time("plan.run", |_| {
            for q in &plans {
                black_box(q.op.run(&q.workload, hw).ok());
            }
        });
        m.host(
            "plan.host_ms_per_query",
            sp.self_ms("plan.run") / plans.len() as f64,
            "ms",
        );
        let done = completed.iter().filter(|c| c.operator == "plan").count();
        m.sim("plan.completed", done as f64, "count");
    }
    layers::telemetry_and_trace(res, sp, m);
    let rf = first.point(REF_LOAD, false);
    let met = rf.metrics.as_ref().expect("summaries carry metrics");
    m.sim("mem.cache_hit_bytes", met.cache_hit_bytes.0 as f64, "bytes");
    m.sim(
        "mem.spilled_bytes",
        met.cache_spilled_bytes.0 as f64,
        "bytes",
    );
    m.sim(
        "exec.queue_wait_p50_us",
        percentile(&rf.queue_wait_us, 50.0),
        "us",
    );
    m.sim(
        "exec.queue_wait_p99_us",
        percentile(&rf.queue_wait_us, 99.0),
        "us",
    );
    m.sim(
        "exec.service_p50_us",
        percentile(&rf.service_us, 50.0),
        "us",
    );
    probe_ok
}

/// Scheduler counters: caches and sheds summed over the sweep,
/// concurrency at saturation, fault handling at the chaos point.
fn scheduler_layers(first: &Sweep, m: &mut Metrics) {
    let all: Vec<&triton_exec::SchedulerMetrics> = first
        .points
        .iter()
        .filter_map(|p| p.metrics.as_ref())
        .collect();
    let sum =
        |f: fn(&triton_exec::SchedulerMetrics) -> u64| all.iter().map(|x| f(x)).sum::<u64>() as f64;
    let hits = sum(|x| x.cost_cache_hits);
    let misses = sum(|x| x.cost_cache_misses);
    m.sim("exec.cost_cache.hits", hits, "count");
    m.sim("exec.cost_cache.misses", misses, "count");
    m.sim(
        "exec.cost_cache.hit_ppm",
        ppm(hits as u64, (hits + misses) as u64),
        "ppm",
    );
    m.sim(
        "exec.build_cache.hits",
        sum(|x| x.build_cache_hits),
        "count",
    );
    m.sim(
        "exec.build_cache.prefix_hits",
        sum(|x| x.build_cache_prefix_hits),
        "count",
    );
    m.sim(
        "exec.build_cache.misses",
        sum(|x| x.build_cache_misses),
        "count",
    );
    m.sim(
        "exec.builds_quarantined",
        sum(|x| x.builds_quarantined),
        "count",
    );
    m.sim("exec.shed.deadline", sum(|x| x.shed_deadline), "count");
    m.sim("exec.shed.queue_full", sum(|x| x.shed_queue_full), "count");
    m.sim("exec.shed.capacity", sum(|x| x.shed_capacity), "count");
    m.sim("exec.shed.faulted", sum(|x| x.shed_faulted), "count");
    let sat = first
        .point(SAT_LOAD, false)
        .metrics
        .as_ref()
        .expect("summaries carry metrics");
    m.sim(
        "exec.peak_concurrency",
        sat.peak_concurrency as f64,
        "count",
    );
    m.sim(
        "exec.mean_concurrency_milli",
        (sat.mean_concurrency * 1e3).round(),
        "count",
    );
    let chaos = first.point(REF_LOAD, true);
    let cm = chaos.metrics.as_ref().expect("summaries carry metrics");
    m.sim("exec.grant_revisions", cm.grant_revisions as f64, "count");
    m.sim("exec.retries", cm.retries as f64, "count");
    m.sim("exec.downgrades", cm.downgrades as f64, "count");
    m.sim("exec.faults_injected", cm.faults_injected as f64, "count");
    m.sim("exec.chaos_slo_attainment_ppm", chaos.attainment_ppm, "ppm");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shares(mixed: bool) -> [usize; 5] {
        let mut n = [0; 5];
        for c in 0..CYCLE {
            n[role(c, mixed) as usize] += 1;
        }
        n
    }

    #[test]
    fn roles_follow_fig_serve_tenant_mix() {
        // [full, batch, slice, fact, cpu] per 18-query cycle.
        assert_eq!(shares(false), [1, 8, 4, 5, 0]);
        assert_eq!(shares(true), [1, 5, 3, 3, 6]);
    }

    #[test]
    fn repeat_arrivals_cycle_through_the_families() {
        let p = picks(WorkloadKind::ServeRepeat, FAMILIES * CYCLE + 1);
        assert_eq!(p[..CYCLE], (0..CYCLE).collect::<Vec<_>>()[..]);
        assert_eq!(p[CYCLE], CYCLE);
        assert_eq!(p[FAMILIES * CYCLE], 0);
    }
}
