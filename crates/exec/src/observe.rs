//! The scheduler's observability recorder: per-query span tracks, a
//! scheduler-wide fault track, phase rollups, and a bounded flight
//! recorder dumped automatically on faults and ladder steps.
//!
//! The recorder is also the run's only counter: [`Recorder::finish`]
//! reads [`SchedulerMetrics`] off the same registry series, rollups, and
//! SLO ledgers the events fed, so the totals and their breakdowns cannot
//! drift apart.
//!
//! # Track layout
//!
//! Chrome `trace_event` organises spans into *processes* and *threads*;
//! the recorder maps the serving runtime onto them as:
//!
//! * pid [`SCHEDULER_PID`] — the scheduler itself: tid
//!   [`SCHED_TID_FAULTS`] carries fault instants (`ecc-retirement`,
//!   `kernel-fault`), tid [`SCHED_TID_FLIGHT`] receives flight-recorder
//!   dumps (a `flight.dump` marker followed by the replayed ring).
//! * pid [`query_pid`]`(id)` — one process per query, named
//!   `q<id>:<name>`: tid [`TID_LIFECYCLE`] has the `queue` span plus
//!   lifecycle instants (`enqueue`, `admit`, `retry`, `downgrade`,
//!   `revoked`, `complete`, `shed`), tid [`TID_PHASES`] the per-phase
//!   span chain stretched over the execution window, and tids
//!   [`TID_SM_A`] / [`TID_SM_B`] the Section 5.2 SM-half overlap lanes
//!   when the operator pipelined its stages.
//!
//! All timestamps come from the simulated clock; event order is the
//! deterministic simulation order, so equal runs serialise to
//! byte-identical traces (pinned by `tests/replay.rs`).

use std::collections::BTreeMap;

use triton_core::{phase_bytes, phase_key, phase_progress, record_overlap, record_report};
use triton_hw::units::{Bytes, Ns};
use triton_hw::HwConfig;
use triton_metrics::{sim_ns, MetricsRegistry};
use triton_trace::{Attr, FlightRecorder, Trace};

use crate::admission::RevisionOutcome;
use crate::build_cache::BuildHit;
use crate::cost_cache::Pricing;
use crate::metrics::{PhaseRollup, SchedulerMetrics};
use crate::query::{JoinQuery, QueryId};
use crate::scheduler::{CompletedQuery, RejectReason};
use crate::slo::{tenant_of, SloAccount};

/// Track group of the scheduler itself.
pub const SCHEDULER_PID: u64 = 0;
/// Scheduler track carrying fault instants.
pub const SCHED_TID_FAULTS: u64 = 0;
/// Scheduler track receiving flight-recorder dumps.
pub const SCHED_TID_FLIGHT: u64 = 1;
/// Scheduler track carrying gauge counter lanes (Perfetto `ph: "C"`
/// series: GPU memory occupancy, resource utilization, in-flight count).
pub const SCHED_TID_GAUGES: u64 = 2;
/// Rollup window of the time-series registry: 1 simulated millisecond.
pub const METRICS_WINDOW_NS: u64 = 1_000_000;
/// Per-query track carrying the queue span and lifecycle instants.
pub const TID_LIFECYCLE: u64 = 0;
/// Per-query track carrying the stretched phase span chain.
pub const TID_PHASES: u64 = 1;
/// Per-query overlap lane of the second partitioning pass (SM half A).
pub const TID_SM_A: u64 = 2;
/// Per-query overlap lane of the join (SM half B).
pub const TID_SM_B: u64 = 3;

/// Track group of a query: scheduler ids are dense from 0, and pid 0 is
/// the scheduler, so queries shift up by one.
#[must_use]
pub fn query_pid(id: QueryId) -> u64 {
    id.0 + 1
}

/// Short label of a rejection for `shed` events and rollup keys.
fn reject_kind(reason: &RejectReason) -> &'static str {
    match reason {
        RejectReason::QueueFull { .. } => "queue-full",
        RejectReason::OverCapacity { .. } => "over-capacity",
        RejectReason::Oom(_) => "oom",
        RejectReason::DeadlineExceeded { .. } => "deadline",
        RejectReason::Faulted { .. } => "faulted",
        RejectReason::InvalidArrival { .. } => "invalid-arrival",
        RejectReason::InvalidBuildKey { .. } => "invalid-build-key",
    }
}

/// One gauge observation the scheduler takes per decision-loop
/// iteration: allocator occupancy from triton-mem and resource
/// utilization priced off the triton-hw cost model (already in integer
/// ppm, so the registry stays float-free).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeSample {
    /// GPU bytes currently reserved (page-rounded).
    pub gpu_used: Bytes,
    /// GPU capacity the reservations draw from.
    pub gpu_capacity: Bytes,
    /// GPU bytes callers actually asked for.
    pub gpu_requested: Bytes,
    /// Page-rounding waste: used − requested.
    pub gpu_fragmentation: Bytes,
    /// GPU occupancy in ppm of capacity (may exceed 1 M under
    /// overcommit).
    pub gpu_occupancy_ppm: u64,
    /// Aggregate interconnect utilization in ppm.
    pub link_util_ppm: u64,
    /// Aggregate SM (compute) utilization in ppm.
    pub sm_util_ppm: u64,
    /// Aggregate GPU memory-bandwidth utilization in ppm.
    pub gpu_mem_util_ppm: u64,
    /// Aggregate CPU utilization in ppm.
    pub cpu_util_ppm: u64,
    /// Queries currently running.
    pub running: u64,
    /// Queries waiting in the admission queue.
    pub queued: u64,
}

/// Collects one serving run's trace, flight-recorder ring, phase
/// rollups, time-series registry, per-tenant SLO accounts, and the
/// aggregate totals no registry series carries. The scheduler drives it
/// at every lifecycle transition; it never influences scheduling
/// decisions (pure observation).
#[derive(Debug)]
pub struct Recorder {
    trace: Trace,
    flight: FlightRecorder,
    /// `(operator, phase)` → `(count, time_ns, bytes)`; `BTreeMap` keeps
    /// the export order deterministic.
    rollup: BTreeMap<(String, String), (u64, f64, u64)>,
    /// Windowed counters/gauges/histograms on the simulated clock.
    registry: MetricsRegistry,
    /// Per-tenant SLO accounts, keyed by tenant label.
    slo: BTreeMap<String, SloAccount>,
    /// Latest gauge snapshot as trace attributes, stamped onto every
    /// flight-recorder dump marker.
    gauge_ctx: Vec<Attr>,
    totals: Totals,
}

/// Run totals outside the registry (see [`SchedulerMetrics`]): exact
/// worst latency, placement bytes, terminal fault costs, ECC losses,
/// shrink reclaims, and the concurrency integrals.
#[derive(Debug, Default)]
struct Totals {
    latency_max: f64,
    cache_hit_bytes: u64,
    cache_spilled_bytes: u64,
    retries: u64,
    downgrades: u64,
    revocations: u64,
    gpu_retired: Bytes,
    builds_quarantined: u64,
    grant_reclaimed: Bytes,
    /// Integral of `(running > 0) dt`.
    busy_time: f64,
    /// Integral of `running dt`.
    weighted_conc: f64,
}

impl Recorder {
    /// New recorder with a flight ring of `flight_capacity` events.
    #[must_use]
    pub fn new(flight_capacity: usize) -> Self {
        let mut trace = Trace::new();
        trace.name_process(SCHEDULER_PID, "scheduler");
        trace.name_thread(SCHEDULER_PID, SCHED_TID_FAULTS, "faults");
        trace.name_thread(SCHEDULER_PID, SCHED_TID_FLIGHT, "flight-recorder");
        trace.name_thread(SCHEDULER_PID, SCHED_TID_GAUGES, "gauges");
        Recorder {
            trace,
            flight: FlightRecorder::new(flight_capacity),
            rollup: BTreeMap::new(),
            registry: MetricsRegistry::new(METRICS_WINDOW_NS),
            slo: BTreeMap::new(),
            gauge_ctx: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// The tenant account for `tenant`, created on first touch.
    fn slo_entry(&mut self, tenant: &str) -> &mut SloAccount {
        self.slo
            .entry(tenant.to_string())
            .or_insert_with(|| SloAccount::new(tenant))
    }

    /// Record a lifecycle instant on a query's lifecycle track and mirror
    /// it into the flight ring.
    fn lifecycle(&mut self, id: QueryId, name: &str, ts: Ns, attrs: Vec<Attr>) {
        let ev = self
            .trace
            .instant(query_pid(id), TID_LIFECYCLE, name, ts.0)
            .attrs(attrs)
            .clone();
        self.flight.record(ev);
    }

    /// A query landed in the admission queue.
    pub fn enqueue(&mut self, id: QueryId, q: &JoinQuery, ts: Ns) {
        self.trace
            .name_process(query_pid(id), format!("{id}:{}", q.name));
        let mut attrs = vec![
            Attr::str("operator", q.op.label()),
            Attr::u64("priority", u64::from(q.priority)),
        ];
        if let Some(d) = q.deadline {
            attrs.push(Attr::f64("deadline_ns", d.0));
        }
        self.lifecycle(id, "enqueue", ts, attrs);
        let tenant = tenant_of(&q.name);
        self.registry
            .counter_inc(&format!("tenant.{tenant}.enqueued"), sim_ns(ts.0));
        self.registry.counter_inc("sched.enqueued", sim_ns(ts.0));
    }

    /// A query was admitted: memory reserved, operator chosen, running.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &mut self,
        id: QueryId,
        ts: Ns,
        operator: &'static str,
        reserved: Bytes,
        cache_grant: Bytes,
        build_cache_hit: bool,
        grant_shrinks: u32,
    ) {
        self.lifecycle(
            id,
            "admit",
            ts,
            vec![
                Attr::str("operator", operator),
                Attr::u64("reserved_bytes", reserved.0),
                Attr::u64("cache_grant_bytes", cache_grant.0),
                Attr::bool("build_cache_hit", build_cache_hit),
                Attr::u64("grant_shrinks", u64::from(grant_shrinks)),
            ],
        );
    }

    /// A faulted attempt re-entered the queue with backoff.
    pub fn retry(&mut self, id: QueryId, ts: Ns, cause: &'static str, attempt: u32, backoff: Ns) {
        self.lifecycle(
            id,
            "retry",
            ts,
            vec![
                Attr::str("cause", cause),
                Attr::u64("attempt", u64::from(attempt)),
                Attr::f64("backoff_ns", backoff.0),
            ],
        );
        self.registry.counter_inc("sched.retries", sim_ns(ts.0));
    }

    /// A query's reservation was revoked by capacity loss.
    pub fn revoked(&mut self, id: QueryId, ts: Ns) {
        self.lifecycle(id, "revoked", ts, Vec::new());
        self.registry.counter_inc("sched.revocations", sim_ns(ts.0));
    }

    /// A running query's memory grant was shrunk in place (the
    /// shrink-in-place rungs above the drop-everything ladder steps).
    /// Revisions are part of the pressure story, so the flight ring is
    /// dumped alongside, with the priced reclaim traffic on the event.
    pub fn revise(
        &mut self,
        id: QueryId,
        q: &JoinQuery,
        ts: Ns,
        out: &RevisionOutcome,
        reason: &'static str,
    ) {
        self.lifecycle(
            id,
            "grant-revision",
            ts,
            vec![
                Attr::str("kind", "shrink"),
                Attr::u64("delta_bytes", out.delta.0),
                Attr::u64("reserved_bytes", out.grant.reserved.0),
                Attr::f64("reclaim_ns", out.reclaim.0),
                Attr::str("reason", reason),
            ],
        );
        self.registry
            .counter_inc("sched.grant_revisions", sim_ns(ts.0));
        self.registry
            .counter_inc("sched.grant_revisions.shrink", sim_ns(ts.0));
        self.totals.grant_reclaimed += out.delta;
        self.slo_entry(tenant_of(&q.name)).grant_revisions += 1;
        self.dump("grant-revision", ts);
    }

    /// A query descended the degradation ladder. Ladder steps are part of
    /// the failure story, so the flight ring is dumped alongside.
    pub fn downgrade(
        &mut self,
        id: QueryId,
        ts: Ns,
        from: &'static str,
        to: &'static str,
        reason: &'static str,
    ) {
        self.lifecycle(
            id,
            "downgrade",
            ts,
            vec![
                Attr::str("from", from),
                Attr::str("to", to),
                Attr::str("reason", reason),
            ],
        );
        self.registry.counter_inc("sched.downgrades", sim_ns(ts.0));
        self.dump("downgrade", ts);
    }

    /// A query was refused with a typed reason — including a bounce off
    /// the full queue, which never reached [`Self::enqueue`]. A shed of a
    /// deadline-holding query settles its tenant's SLO as a violation.
    pub fn shed(&mut self, id: QueryId, q: &JoinQuery, ts: Ns, reason: &RejectReason) {
        let kind = reject_kind(reason);
        self.lifecycle(
            id,
            "shed",
            ts,
            vec![
                Attr::str("kind", kind),
                Attr::str("reason", reason.to_string()),
            ],
        );
        self.registry.counter_inc("sched.shed", sim_ns(ts.0));
        self.registry
            .counter_inc(&format!("sched.shed.{kind}"), sim_ns(ts.0));
        if let RejectReason::Faulted { retries, .. } = reason {
            self.totals.retries += u64::from(*retries);
        }
        let tenant = tenant_of(&q.name);
        self.registry
            .counter_inc(&format!("tenant.{tenant}.shed"), sim_ns(ts.0));
        let account = self.slo_entry(tenant);
        account.shed += 1;
        if q.deadline.is_some() {
            account.slo_total += 1;
        }
    }

    /// An operator pricing went through the cost memo:
    /// `sched.cost_cache.hit` when the memo served a cached report,
    /// `sched.cost_cache.miss` when the operator ran and was memoized, and
    /// nothing on a bypass. Registry counters only — no trace events, so
    /// the trace stays byte-identical with the memo on or off, and a
    /// disabled memo (which always bypasses) differs from an enabled one
    /// in exactly these counter lanes.
    pub fn cost_cache(&mut self, pricing: Pricing, ts: Ns) {
        let name = match pricing {
            Pricing::Hit => "sched.cost_cache.hit",
            Pricing::Miss => "sched.cost_cache.miss",
            Pricing::Bypass => return,
        };
        self.registry.counter_inc(name, sim_ns(ts.0));
    }

    /// A shared-build acquire was served: `sched.build_cache.exact_hit`,
    /// `sched.build_cache.prefix_hit`, or `sched.build_cache.miss`.
    /// Registry counters only, recorded identically in every scheduler
    /// configuration (build sharing is independent of the cost-cache
    /// knob).
    pub fn build_cache(&mut self, hit: BuildHit, ts: Ns) {
        let name = match hit {
            BuildHit::Exact => "sched.build_cache.exact_hit",
            BuildHit::Prefix => "sched.build_cache.prefix_hit",
            BuildHit::Miss => "sched.build_cache.miss",
        };
        self.registry.counter_inc(name, sim_ns(ts.0));
    }

    /// A hardware fault struck the run: recorded on the scheduler's fault
    /// track, mirrored into the ring, and the ring is dumped.
    pub fn fault(&mut self, kind: &'static str, ts: Ns, attrs: Vec<Attr>) {
        let ev = self
            .trace
            .instant(SCHEDULER_PID, SCHED_TID_FAULTS, kind, ts.0)
            .attrs(attrs)
            .clone();
        self.flight.record(ev);
        self.registry.counter_inc("sched.faults", sim_ns(ts.0));
        self.registry
            .counter_inc(&format!("sched.faults.{kind}"), sim_ns(ts.0));
        self.dump(kind, ts);
    }

    /// An ECC retirement took `retired` bytes of GPU memory and tripped
    /// the build-cache breaker on `quarantined` resident builds.
    pub fn ecc_retirement(&mut self, ts: Ns, retired: Bytes, quarantined: u64) {
        self.totals.gpu_retired += retired;
        self.totals.builds_quarantined += quarantined;
        self.fault(
            "ecc-retirement",
            ts,
            vec![
                Attr::u64("retired_bytes", retired.0),
                Attr::u64("builds_quarantined", quarantined),
            ],
        );
    }

    /// The fluid state advanced `dt` with `running` queries in flight:
    /// accumulates the integrals behind the mean concurrency.
    pub fn advance(&mut self, dt: f64, running: usize) {
        if running > 0 {
            self.totals.busy_time += dt;
            self.totals.weighted_conc += dt * running as f64;
        }
    }

    /// Dump the flight ring onto the scheduler's flight track, stamping
    /// the marker with the latest gauge snapshot so forensics carry the
    /// machine state (occupancy, utilization) at the decision point.
    fn dump(&mut self, reason: &str, ts: Ns) {
        self.flight.dump_with_context(
            &mut self.trace,
            SCHEDULER_PID,
            SCHED_TID_FLIGHT,
            reason,
            ts.0,
            &self.gauge_ctx,
        );
    }

    /// Take one gauge observation at a scheduler decision point: update
    /// the registry's gauges, refresh the flight-dump context, and emit
    /// Perfetto counter lanes on [`SCHED_TID_GAUGES`]. Counter events are
    /// only appended when a series member actually changed, so an idle
    /// loop iteration costs nothing in the trace.
    pub fn sample_gauges(&mut self, ts: Ns, s: &GaugeSample) {
        let t = sim_ns(ts.0);
        let mem_changed = self.registry.gauge_set("gpu.used_bytes", s.gpu_used.0, t)
            | self
                .registry
                .gauge_set("gpu.requested_bytes", s.gpu_requested.0, t)
            | self
                .registry
                .gauge_set("gpu.fragmentation_bytes", s.gpu_fragmentation.0, t)
            | self
                .registry
                .gauge_set("gpu.occupancy_ppm", s.gpu_occupancy_ppm, t);
        let util_changed = self.registry.gauge_set("util.link_ppm", s.link_util_ppm, t)
            | self.registry.gauge_set("util.sm_ppm", s.sm_util_ppm, t)
            | self
                .registry
                .gauge_set("util.gpu_mem_ppm", s.gpu_mem_util_ppm, t)
            | self.registry.gauge_set("util.cpu_ppm", s.cpu_util_ppm, t);
        let flight_changed = self.registry.gauge_set("sched.running", s.running, t)
            | self.registry.gauge_set("sched.queued", s.queued, t);
        if mem_changed {
            self.trace
                .counter(SCHEDULER_PID, SCHED_TID_GAUGES, "gpu_mem", ts.0)
                .attr(Attr::u64("used_bytes", s.gpu_used.0))
                .attr(Attr::u64("requested_bytes", s.gpu_requested.0))
                .attr(Attr::u64("fragmentation_bytes", s.gpu_fragmentation.0))
                .attr(Attr::u64("occupancy_ppm", s.gpu_occupancy_ppm));
        }
        if util_changed {
            self.trace
                .counter(SCHEDULER_PID, SCHED_TID_GAUGES, "utilization", ts.0)
                .attr(Attr::u64("link_ppm", s.link_util_ppm))
                .attr(Attr::u64("sm_ppm", s.sm_util_ppm))
                .attr(Attr::u64("gpu_mem_ppm", s.gpu_mem_util_ppm))
                .attr(Attr::u64("cpu_ppm", s.cpu_util_ppm));
        }
        if flight_changed {
            self.trace
                .counter(SCHEDULER_PID, SCHED_TID_GAUGES, "inflight", ts.0)
                .attr(Attr::u64("running", s.running))
                .attr(Attr::u64("queued", s.queued));
        }
        self.gauge_ctx = vec![
            Attr::u64("gpu_used_bytes", s.gpu_used.0),
            Attr::u64("gpu_occupancy_ppm", s.gpu_occupancy_ppm),
            Attr::u64("gpu_fragmentation_bytes", s.gpu_fragmentation.0),
            Attr::u64("link_util_ppm", s.link_util_ppm),
            Attr::u64("sm_util_ppm", s.sm_util_ppm),
            Attr::u64("running", s.running),
            Attr::u64("queued", s.queued),
        ];
    }

    /// A query completed: emit its queue span, stretched phase chain,
    /// overlap lanes, and `complete` instant, and fold its phases into
    /// the rollup. For every query the rollup contributions sum to
    /// `latency()` within one simulated nanosecond: `queue` covers
    /// `[arrival, start]` and the stretched phases cover exactly
    /// `[start, finish]`. `deadline` is the query's latency objective.
    pub fn complete(&mut self, c: &CompletedQuery, deadline: Option<Ns>, hw: &HwConfig) {
        let pid = query_pid(c.id);
        let queue_wait = (c.start - c.arrival).0.max(0.0);
        self.trace
            .span(pid, TID_LIFECYCLE, "queue", c.arrival.0, queue_wait);
        self.add_rollup(c.operator, "queue", queue_wait, 0);

        let window = (c.finish - c.start).0.max(0.0);
        let iso: f64 = c.report.phases.iter().map(|p| p.time.0).sum();
        self.trace.name_thread(pid, TID_PHASES, "phases");
        if iso > 0.0 {
            let stretch = window / iso;
            record_report(
                &mut self.trace,
                pid,
                TID_PHASES,
                c.start.0,
                stretch,
                &c.report,
                hw,
            );
            for p in &c.report.phases {
                self.add_rollup(
                    c.operator,
                    &phase_key(&p.name),
                    p.time.0 * stretch,
                    phase_bytes(p),
                );
            }
        } else {
            // Degenerate report (no phases): one opaque span.
            self.trace.span(pid, TID_PHASES, "run", c.start.0, window);
            self.add_rollup(c.operator, "run", window, 0);
        }

        if let Some(lanes) = &c.report.overlap {
            if c.report.total.0 > 0.0 {
                // The overlap pipeline is the tail of the report; scale it
                // with the same factor that maps the report onto the
                // scheduled window so the lanes end exactly at `finish`.
                let scale = window / c.report.total.0;
                let tail = lanes.total().0 * scale;
                self.trace.name_thread(pid, TID_SM_A, "sm-half-a");
                self.trace.name_thread(pid, TID_SM_B, "sm-half-b");
                record_overlap(
                    &mut self.trace,
                    pid,
                    TID_SM_A,
                    TID_SM_B,
                    c.finish.0 - tail,
                    scale,
                    lanes,
                    c.report.placement.as_ref(),
                );
            }
        }

        let mut attrs = vec![
            Attr::str("operator", c.operator),
            Attr::f64("latency_ns", c.latency().0),
            Attr::f64("dedicated_ns", c.dedicated.0),
            Attr::u64("reserved_bytes", c.reserved.0),
            Attr::bool("build_cache_hit", c.build_cache_hit),
            Attr::u64("retries", u64::from(c.fault.retries)),
            Attr::u64("downgrades", u64::from(c.fault.downgrades)),
            Attr::u64("revocations", u64::from(c.fault.revocations)),
        ];
        if let Some(p) = &c.report.placement {
            attrs.push(Attr::str("placement_policy", p.policy.clone()));
            attrs.push(Attr::u64("cache_hit_bytes", p.cache_hit_bytes));
            attrs.push(Attr::u64("cache_spilled_bytes", p.spilled_bytes));
            attrs.push(Attr::u64("pairs_cached", p.pairs_cached()));
            self.totals.cache_hit_bytes += p.cache_hit_bytes;
            self.totals.cache_spilled_bytes += p.spilled_bytes;
        }
        self.lifecycle(c.id, "complete", c.finish, attrs);
        self.totals.latency_max = self.totals.latency_max.max(c.latency().0);
        self.totals.retries += u64::from(c.fault.retries);
        self.totals.downgrades += u64::from(c.fault.downgrades);
        self.totals.revocations += u64::from(c.fault.revocations);

        // Registry counters/histograms and SLO settlement. All values
        // cross the float boundary once, through `sim_ns`.
        let t = sim_ns(c.finish.0);
        let latency_ns = sim_ns(c.latency().0);
        self.registry.counter_inc("sched.completed", t);
        self.registry
            .counter_add("sched.tuples", c.report.tuples_actual, t);
        self.registry.observe("sched.latency_ns", latency_ns, t);
        self.registry
            .observe("sched.queue_wait_ns", sim_ns(queue_wait), t);
        for (key, time_ns, bytes) in phase_progress(&c.report) {
            let op = c.operator;
            self.registry
                .counter_inc(&format!("phase.{op}.{key}.count"), t);
            self.registry
                .counter_add(&format!("phase.{op}.{key}.time_ns"), time_ns, t);
            self.registry
                .counter_add(&format!("phase.{op}.{key}.bytes"), bytes, t);
        }
        let tenant = tenant_of(&c.name);
        self.registry
            .counter_inc(&format!("tenant.{tenant}.completed"), t);
        let account = self.slo_entry(tenant);
        account.completed += 1;
        account.latency.record(latency_ns);
        if let Some(d) = deadline {
            account.slo_total += 1;
            if c.latency().0 <= d.0 {
                account.slo_met += 1;
            }
        }
    }

    fn add_rollup(&mut self, operator: &str, phase: &str, time_ns: f64, bytes: u64) {
        let cell = self
            .rollup
            .entry((operator.to_string(), phase.to_string()))
            .or_insert((0, 0.0, 0));
        cell.0 += 1;
        cell.1 += time_ns;
        cell.2 += bytes;
    }

    /// Finish the run and take every artifact: the trace, the
    /// time-series registry, the per-tenant SLO accounts (sorted by
    /// tenant), and the [`SchedulerMetrics`] read off them. The caller
    /// hands over only what no event carries: the makespan and the
    /// allocator's high-water mark and initial capacity (admission's
    /// transient reservations never reach a gauge sample).
    #[must_use]
    pub fn finish(
        self,
        makespan: Ns,
        peak_gpu_reserved: Bytes,
        gpu_capacity: Bytes,
    ) -> (Trace, MetricsRegistry, Vec<SloAccount>, SchedulerMetrics) {
        let (reg, t) = (&self.registry, self.totals);
        let tuples = reg.counter("sched.tuples");
        let latency = reg.histogram("sched.latency_ns");
        let latency_at = |p| Ns(latency.map_or(0, |h| h.value_at_percentile(p)) as f64);
        let build_cache_prefix_hits = reg.counter("sched.build_cache.prefix_hit");
        let metrics = SchedulerMetrics {
            completed: reg.counter("sched.completed"),
            rejected: reg.counter("sched.shed"),
            shed_deadline: reg.counter("sched.shed.deadline"),
            shed_queue_full: reg.counter("sched.shed.queue-full"),
            shed_capacity: reg.counter("sched.shed.over-capacity") + reg.counter("sched.shed.oom"),
            shed_faulted: reg.counter("sched.shed.faulted"),
            makespan,
            tuples,
            throughput_gtps: if makespan.0 > 0.0 {
                tuples as f64 / makespan.as_secs() / 1e9
            } else {
                0.0
            },
            latency_p50: latency_at(50),
            latency_p99: latency_at(99),
            latency_max: Ns(t.latency_max),
            peak_gpu_reserved,
            gpu_capacity,
            gpu_retired: t.gpu_retired,
            peak_concurrency: reg.gauge("sched.running").map_or(0, |g| g.max) as usize,
            mean_concurrency: if t.busy_time > 0.0 {
                t.weighted_conc / t.busy_time
            } else {
                0.0
            },
            cache_hit_bytes: Bytes(t.cache_hit_bytes),
            cache_spilled_bytes: Bytes(t.cache_spilled_bytes),
            build_cache_hits: reg.counter("sched.build_cache.exact_hit") + build_cache_prefix_hits,
            build_cache_prefix_hits,
            build_cache_misses: reg.counter("sched.build_cache.miss"),
            builds_quarantined: t.builds_quarantined,
            faults_injected: reg.counter("sched.faults"),
            retries: t.retries,
            downgrades: t.downgrades,
            revocations: t.revocations,
            grant_revisions: reg.counter("sched.grant_revisions"),
            grant_reclaimed: t.grant_reclaimed,
            cost_cache_hits: reg.counter("sched.cost_cache.hit"),
            cost_cache_misses: reg.counter("sched.cost_cache.miss"),
            phases: self
                .rollup
                .into_iter()
                .map(|((operator, phase), (count, time_ns, bytes))| PhaseRollup {
                    operator,
                    phase,
                    count,
                    time: Ns(time_ns),
                    bytes: Bytes(bytes),
                })
                .collect(),
        };
        let slo = self.slo.into_values().collect();
        (self.trace, self.registry, slo, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query(name: &str) -> JoinQuery {
        JoinQuery::new(
            name,
            triton_datagen::WorkloadSpec::paper_default(2, 256).generate(),
            Ns::ZERO,
        )
    }

    fn finish(obs: Recorder) -> (Trace, MetricsRegistry, Vec<SloAccount>, SchedulerMetrics) {
        obs.finish(Ns::ZERO, Bytes(0), Bytes(0))
    }

    #[test]
    fn fault_dumps_the_preceding_lifecycle() {
        let mut obs = Recorder::new(8);
        obs.enqueue(QueryId(0), &query("t"), Ns(0.0));
        obs.admit(
            QueryId(0),
            Ns(5.0),
            "triton",
            Bytes(128),
            Bytes(64),
            false,
            0,
        );
        obs.fault("kernel-fault", Ns(9.0), vec![Attr::str("victim", "q0")]);
        let (trace, ..) = finish(obs);
        // The dump replays enqueue + admit + the fault itself onto the
        // scheduler's flight track, after a flight.dump marker.
        let flight: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.pid == SCHEDULER_PID && e.tid == SCHED_TID_FLIGHT)
            .collect();
        assert_eq!(flight.len(), 4, "marker + 3 replayed events");
        assert_eq!(flight[0].name, "flight.dump");
        assert_eq!(flight[1].name, "enqueue");
        assert_eq!(flight[2].name, "admit");
        assert_eq!(flight[3].name, "kernel-fault");
    }

    #[test]
    fn gauge_sampling_is_change_driven_and_stamps_dumps() {
        let mut obs = Recorder::new(8);
        let s = GaugeSample {
            gpu_used: Bytes(4096),
            gpu_occupancy_ppm: 250_000,
            running: 1,
            ..GaugeSample::default()
        };
        obs.sample_gauges(Ns(10.0), &s);
        // Identical snapshot: gauges unchanged, no new counter lanes.
        obs.sample_gauges(Ns(20.0), &s);
        obs.fault("kernel-fault", Ns(30.0), Vec::new());
        let (trace, _, _, metrics) = finish(obs);
        assert_eq!(metrics.peak_concurrency, 1, "read off the running gauge");
        let lanes: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.pid == SCHEDULER_PID && e.tid == SCHED_TID_GAUGES)
            .collect();
        assert_eq!(lanes.len(), 3, "one counter event per group, once");
        let marker = trace
            .events()
            .iter()
            .find(|e| e.name == "flight.dump")
            .expect("fault dumps the ring");
        assert!(
            marker
                .attrs
                .iter()
                .any(|a| a.key == "gpu_used_bytes"
                    && a.value == triton_trace::AttrValue::U64(4096)),
            "dump marker carries the latest gauge snapshot"
        );
    }

    #[test]
    fn terminal_events_settle_tenant_slo() {
        let mut obs = Recorder::new(8);
        let mut q = query("dash-0");
        q.deadline = Some(Ns(100.0));
        obs.enqueue(QueryId(0), &q, Ns(0.0));
        obs.shed(
            QueryId(0),
            &q,
            Ns(5.0),
            &RejectReason::DeadlineExceeded {
                deadline: Ns(100.0),
                waited: Ns(5.0),
            },
        );
        // A bounce off the full queue never enqueued, and still settles.
        obs.shed(
            QueryId(1),
            &q,
            Ns(5.0),
            &RejectReason::QueueFull { limit: 1 },
        );
        let (_, registry, accounts, metrics) = finish(obs);
        assert_eq!(accounts.len(), 1);
        assert_eq!(accounts[0].tenant, "dash");
        assert_eq!(accounts[0].shed, 2);
        assert_eq!(accounts[0].slo_total, 2, "shed deadline holders violate");
        assert_eq!(accounts[0].slo_met, 0);
        assert_eq!(registry.counter("sched.shed.queue-full"), 1);
        assert_eq!(registry.counter("tenant.dash.enqueued"), 1);
        assert_eq!(registry.counter("tenant.dash.shed"), 2);
        assert_eq!(
            (
                metrics.rejected,
                metrics.shed_deadline,
                metrics.shed_queue_full
            ),
            (2, 1, 1)
        );
    }

    #[test]
    fn rollups_sorted_and_accumulated() {
        let mut obs = Recorder::new(4);
        obs.add_rollup("triton", "queue", 5.0, 0);
        obs.add_rollup("cpu-radix", "join", 2.0, 7);
        obs.add_rollup("triton", "queue", 3.0, 0);
        let r = finish(obs).3.phases;
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].operator, "cpu-radix");
        assert_eq!(r[1].phase, "queue");
        assert_eq!(r[1].count, 2);
        assert_eq!(r[1].time, Ns(8.0));
    }

    #[test]
    fn concurrency_integrals_skip_idle_time() {
        let mut obs = Recorder::new(4);
        obs.advance(10.0, 2);
        obs.advance(5.0, 0);
        obs.advance(10.0, 4);
        assert_eq!(finish(obs).3.mean_concurrency, 3.0);
    }
}
