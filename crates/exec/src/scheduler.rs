//! The multi-query join scheduler: a fluid discrete-event simulation of
//! concurrent joins sharing one AC922-class machine.
//!
//! Lifecycle of a query: *arrive* → *queue* (priority order, bounded) →
//! *admit* (memory reservation through [`AdmissionController`]) →
//! *execute concurrently* (speed set each event by the weighted max-min
//! arbiter [`triton_hw::fair_share_rates`] over every query's
//! [`ResourceVector`]) → *complete* (release memory, unpin the build
//! cache). Queries can instead be *rejected* (queue full, a memory
//! floor that exceeds the entire GPU, or an arrival time that is not a
//! finite instant) or *shed* (deadline passed while queued) — always
//! with a typed reason.
//!
//! # Fault injection
//!
//! [`Scheduler::run_with_faults`] replays a [`triton_hw::FaultPlan`]
//! against the same timeline: link degradations and CPU slowdowns
//! reshape every in-flight query's demand vector (so the fair-share
//! arbiter prices the *degraded* machine), ECC retirements shrink the
//! admission capacity and revoke reservations that no longer fit, and
//! transient kernel faults kill one GPU-resident attempt. Under a
//! recovering [`Resilience`] policy (the default), victims recover
//! through retry with deterministic backoff, shrunken cache grants, and
//! a degradation ladder ending at the CPU radix join; under
//! [`Resilience::Off`] they are shed with [`RejectReason::Faulted`] —
//! the baseline chaos tests compare against.
//!
//! # Elastic grants
//!
//! Admission grants are *revisable contracts*: under memory pressure —
//! an ECC retirement overcommitting the device, or a bursty
//! deadline-holding arrival that cannot be admitted — the scheduler
//! first issues priced, traced
//! [`crate::admission::GrantRevision::Shrink`]s against running
//! queries' optional cache shares (coldest victims re-priced through
//! the link cost model, never answers) and only falls back to
//! revocation or shedding once every cache grant is exhausted. See
//! [`Resilience::Elastic`]; [`SchedulerConfig::fixed_grants`] restores
//! the pre-elastic behavior.
//!
//! Execution is functional: every admitted query actually runs its
//! operator (with the granted cache budget) and the scheduler records the
//! verifiable [`JoinReport`]. Only the *timing* is arbitrated; faults
//! change placement and speed, never answers.

use std::cmp::Reverse;
use std::collections::VecDeque;

use triton_core::JoinReport;
use triton_datagen::TUPLE_BYTES;
use triton_hw::fault::splitmix64;
use triton_hw::units::{Bytes, Ns};
use triton_hw::{
    aggregate_utilization, fair_share_rates, utilization_ppm, FaultPlan, HwConfig, ResourceVector,
};
use triton_mem::OutOfMemory;
use triton_metrics::MetricsRegistry;

use triton_trace::{Attr, Trace};

use crate::admission::{AdmissionController, GrantRevision, Reservation};
use crate::build_cache::{BuildCache, FULL_RANGE};
use crate::cost_cache::CostCache;
use crate::demand::ResourceDemand;
use crate::fault::{degraded_vector, FaultCause, FaultOutcome};
use crate::metrics::SchedulerMetrics;
use crate::observe::{GaugeSample, Recorder};
use crate::query::{JoinQuery, QueryId};
use crate::resilience::{backoff, downgrade_operator, Resilience, MAX_RETRIES, MAX_REVISIONS};
use crate::slo::SloAccount;

/// Events the flight-recorder ring keeps for the automatic dump on
/// faults and ladder steps.
const FLIGHT_CAPACITY: usize = 64;

/// Why the scheduler refused to run a query.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The waiting queue was at its configured limit when the query
    /// arrived (backpressure: the client should retry later).
    QueueFull {
        /// The configured queue capacity.
        limit: usize,
    },
    /// The query's minimum memory floor exceeds the entire GPU — it can
    /// never be admitted on this machine, at any concurrency.
    OverCapacity {
        /// The unmeetable floor.
        needed: Bytes,
        /// Total device capacity.
        capacity: Bytes,
    },
    /// The operator itself ran out of simulated memory (e.g. CPU memory
    /// cannot hold the partitioned spill).
    Oom(OutOfMemory),
    /// The deadline expired while the query waited for memory.
    DeadlineExceeded {
        /// The latency budget that was missed.
        deadline: Ns,
        /// Time the query had already spent queued.
        waited: Ns,
    },
    /// A hardware fault killed the query and resilience could not (or
    /// was not allowed to) recover it.
    Faulted {
        /// Label of the fault that killed the final attempt.
        fault: String,
        /// Transient retries consumed before the query was lost.
        retries: u32,
    },
    /// The arrival time is NaN or infinite: the query has no place on
    /// the timeline, so it is refused at intake.
    InvalidArrival {
        /// The submitted arrival time.
        arrival: Ns,
    },
    /// The operator's hash table cannot hold a build key (the
    /// no-partitioning join's array table needs distinct keys in
    /// `1..=|R|`): the query is refused when it arrives instead of
    /// panicking mid-run.
    InvalidBuildKey {
        /// The first build key the operator cannot hold.
        key: u64,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { limit } => write!(f, "queue full ({limit} waiting)"),
            RejectReason::OverCapacity { needed, capacity } => {
                write!(f, "needs {needed} of {capacity} GPU memory")
            }
            RejectReason::Oom(e) => write!(f, "{e}"),
            RejectReason::DeadlineExceeded { deadline, waited } => {
                write!(f, "deadline {deadline} passed after waiting {waited}")
            }
            RejectReason::Faulted { fault, retries } => {
                write!(f, "lost to {fault} after {retries} retries")
            }
            RejectReason::InvalidArrival { arrival } => {
                write!(f, "arrival time {} ns is not finite", arrival.0)
            }
            RejectReason::InvalidBuildKey { key } => {
                write!(f, "build key {key} does not fit the operator's hash table")
            }
        }
    }
}

/// A query that ran to completion.
#[derive(Debug, Clone)]
pub struct CompletedQuery {
    /// Scheduler-assigned id (submission order).
    pub id: QueryId,
    /// The query's name tag.
    pub name: String,
    /// Arrival time.
    pub arrival: Ns,
    /// Admission time of the final (successful) attempt.
    pub start: Ns,
    /// Completion time.
    pub finish: Ns,
    /// Dedicated-run service requirement (what the query would take
    /// alone); `finish - start >= dedicated` under contention.
    pub dedicated: Ns,
    /// The functional dedicated-run report (exact join result).
    pub report: JoinReport,
    /// GPU bytes reserved while running.
    pub reserved: Bytes,
    /// Whether the partitioned build side was already resident.
    pub build_cache_hit: bool,
    /// Label of the operator that finally completed the query (the
    /// degradation ladder may have moved it off its submitted operator).
    pub operator: &'static str,
    /// What recovering from faults cost this query; all zeros on a
    /// clean run.
    pub fault: FaultOutcome,
}

impl CompletedQuery {
    /// End-to-end latency (queueing + retries + arbitrated execution).
    #[must_use]
    pub fn latency(&self) -> Ns {
        self.finish - self.arrival
    }
}

/// Terminal state of one submitted query.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Ran to completion.
    Completed(Box<CompletedQuery>),
    /// Refused with a typed reason (never produced a result).
    Rejected {
        /// Scheduler-assigned id.
        id: QueryId,
        /// The query's name tag.
        name: String,
        /// Why it was refused.
        reason: RejectReason,
    },
}

impl Outcome {
    /// The completed record, if this query finished.
    #[must_use]
    pub fn completed(&self) -> Option<&CompletedQuery> {
        match self {
            Outcome::Completed(c) => Some(c),
            Outcome::Rejected { .. } => None,
        }
    }

    /// The rejection reason, if this query was refused.
    #[must_use]
    pub fn rejection(&self) -> Option<&RejectReason> {
        match self {
            Outcome::Completed(_) => None,
            Outcome::Rejected { reason, .. } => Some(reason),
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum concurrently executing queries (admission also requires a
    /// memory reservation; this bounds arbitration overheads).
    pub max_inflight: usize,
    /// Maximum queries waiting for admission before new arrivals are
    /// rejected with [`RejectReason::QueueFull`].
    pub max_queue: usize,
    /// Fault-recovery policy (see [`crate::resilience`]).
    pub resilience: Resilience,
    /// Arrival-wake batching (epoch scheduling). With work in flight the
    /// event loop defers its arrival wake until this many pending
    /// arrivals are due — or the next completion / fault / retry wake,
    /// whichever comes first — then drains and admits the whole due
    /// batch in one pass instead of re-running admission and arbitration
    /// per arrival. `1` wakes per arrival: the classic event-per-arrival
    /// loop, reproduced exactly. An idle machine always wakes on the
    /// first arrival regardless.
    pub arrival_batch: usize,
    /// Memoize repeat operator pricings ([`crate::CostCache`]) across
    /// decisions. Semantically transparent: outcomes, trace, and SLO
    /// accounts are identical with the memo on or off (only the
    /// `sched.cost_cache.*` telemetry counters differ).
    pub cost_caching: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_inflight: 8,
            max_queue: 64,
            resilience: Resilience::default(),
            arrival_batch: 1,
            cost_caching: true,
        }
    }
}

impl SchedulerConfig {
    /// One query at a time: the serial baseline concurrency is compared
    /// against.
    pub fn serial() -> Self {
        SchedulerConfig {
            max_inflight: 1,
            ..Self::default()
        }
    }

    /// Faults shed their victims instead of recovering — the baseline
    /// the resilient path is compared against.
    #[must_use]
    pub fn no_resilience() -> Self {
        SchedulerConfig {
            resilience: Resilience::Off,
            ..Self::default()
        }
    }

    /// Resilient but with immutable grants: memory pressure goes
    /// straight to revocation/shedding instead of shrink-in-place — the
    /// pre-elastic scheduler, kept as the `fig_elastic` baseline.
    #[must_use]
    pub fn fixed_grants() -> Self {
        SchedulerConfig {
            resilience: Resilience::FixedGrants,
            ..Self::default()
        }
    }

    /// The sustained-load throughput path: epoch-batched admission
    /// (arrival wakes amortized over batches of 8) on top of the default
    /// cost memo. Per-query outcomes are unchanged in kind —
    /// every query still terminates with a typed outcome and exact
    /// results — but decision points, and therefore scheduler overhead
    /// per arrival, drop under bursty load.
    #[must_use]
    pub fn throughput() -> Self {
        SchedulerConfig {
            arrival_batch: 8,
            ..Self::default()
        }
    }
}

/// Everything a serving run produces.
#[derive(Debug)]
pub struct ServeResult {
    /// One outcome per submitted query, in submission order.
    pub outcomes: Vec<Outcome>,
    /// Aggregate scheduler metrics.
    pub metrics: SchedulerMetrics,
    /// The run's span/event trace (see [`crate::observe`]): per-query
    /// lifecycle and phase tracks, fault instants, and flight-recorder
    /// dumps, all on the simulated clock. Export with
    /// [`triton_trace::to_chrome_json`] or render with
    /// [`triton_hw::Timeline::from_trace`].
    pub trace: Trace,
    /// Windowed time-series telemetry on the simulated clock: scheduler
    /// counters, allocator gauges, and latency histograms. Deterministic:
    /// equal runs expose byte-identical text/JSON.
    pub telemetry: MetricsRegistry,
    /// Per-tenant SLO accounts (latency attainment, shed counts, error
    /// budget burn, grant revisions), sorted by tenant label.
    pub slo: Vec<SloAccount>,
}

impl ServeResult {
    /// Completed queries, in submission order.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedQuery> {
        self.outcomes.iter().filter_map(Outcome::completed)
    }
}

/// One in-flight query inside the fluid simulation.
struct Running {
    id: QueryId,
    /// Kept whole so a faulted attempt can be requeued and re-run.
    query: JoinQuery,
    start: Ns,
    /// Remaining dedicated-run nanoseconds.
    remaining: f64,
    demand: ResourceVector,
    weight: f64,
    dedicated: Ns,
    report: JoinReport,
    reservation: Reservation,
    build_cache_hit: bool,
    uses_gpu: bool,
    op_label: &'static str,
    fault: FaultOutcome,
    /// Transient failures survived on the current ladder rung.
    attempts_at_rung: u32,
    /// In-place grant revisions absorbed so far (bounded by
    /// [`MAX_REVISIONS`]).
    revisions: u32,
}

/// One query waiting for admission (fresh, or sleeping out a backoff).
struct Queued {
    id: QueryId,
    query: JoinQuery,
    /// Not considered for admission before this instant (retry backoff).
    eligible_at: Ns,
    fault: FaultOutcome,
    attempts_at_rung: u32,
}

impl Queued {
    /// Step one rung down the degradation ladder, traced as a
    /// `downgrade` with `reason`; `false` at the bottom rung.
    fn descend(&mut self, obs: &mut Recorder, clock: Ns, reason: &'static str) -> bool {
        let Some(op) = downgrade_operator(&self.query.op) else {
            return false;
        };
        let from = self.query.op.label();
        self.query.op = op;
        self.fault.downgrades += 1;
        self.attempts_at_rung = 0;
        obs.downgrade(self.id, clock, from, self.query.op.label(), reason);
        true
    }
}

/// Insert preserving priority order, FIFO within a priority class.
fn enqueue(queue: &mut VecDeque<Queued>, q: Queued) {
    let pos = queue
        .iter()
        .position(|e| e.query.priority < q.query.priority)
        .unwrap_or(queue.len());
    queue.insert(pos, q);
}

/// Revocation victim: the lowest-priority reservation holder, breaking
/// ties toward the most recently submitted query (highest id) so the
/// oldest work survives capacity loss.
fn victim_index(running: &[Running]) -> Option<usize> {
    running
        .iter()
        .enumerate()
        .filter(|(_, r)| r.reservation.reserved.0 > 0)
        .min_by_key(|(_, r)| (r.query.priority, Reverse(r.id)))
        .map(|(i, _)| i)
}

/// The probe side's share of a query's input bytes.
fn probe_frac(query: &JoinQuery) -> f64 {
    let r_bytes = query.workload.r.len() as u64 * TUPLE_BYTES;
    let s_bytes = query.workload.s.len() as u64 * TUPLE_BYTES;
    s_bytes as f64 / (r_bytes + s_bytes).max(1) as f64
}

/// The multi-query join scheduler.
pub struct Scheduler {
    hw: HwConfig,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Build for a machine and configuration.
    pub fn new(hw: HwConfig, config: SchedulerConfig) -> Self {
        Scheduler { hw, config }
    }

    /// Run a batch of queries to completion and report every outcome.
    /// Queries may arrive in any order; they are processed by arrival
    /// time, queued in priority order, and executed concurrently under
    /// memory-budget admission.
    pub fn run(&self, queries: Vec<JoinQuery>) -> ServeResult {
        self.run_with_faults(queries, &FaultPlan::none())
    }

    /// [`Self::run`] with a [`FaultPlan`] replayed against the timeline.
    /// Fully deterministic: the same queries and the same plan (seed
    /// included) produce identical outcomes and metrics.
    pub fn run_with_faults(&self, queries: Vec<JoinQuery>, plan: &FaultPlan) -> ServeResult {
        let mut run = Run {
            hw: &self.hw,
            config: &self.config,
            clock: Ns::ZERO,
            queue: VecDeque::new(),
            running: Vec::new(),
            admission: AdmissionController::new(&self.hw),
            cache: BuildCache::new(),
            costs: CostCache::new(self.config.cost_caching),
            outcomes: Vec::new(),
            obs: Recorder::new(FLIGHT_CAPACITY),
        };
        // A NaN or infinite arrival never comes due on the timeline: it
        // is refused at intake, so every submission still settles.
        let mut arrivals = Vec::with_capacity(queries.len());
        for (i, q) in queries.into_iter().enumerate() {
            let id = QueryId(i as u64);
            if q.arrival.0.is_finite() {
                arrivals.push((id, q));
            } else {
                let reason = RejectReason::InvalidArrival { arrival: q.arrival };
                run.reject(id, &q, reason);
            }
        }
        // Stable by arrival time; ids preserve submission order.
        arrivals.sort_by(|a, b| a.1.arrival.0.total_cmp(&b.1.arrival.0));
        run.drive(arrivals.into(), plan)
    }
}

/// One serving run's state. Its methods are the event loop and the
/// decisions it makes at each event: admission, recovery, and
/// shrink-in-place.
struct Run<'a> {
    hw: &'a HwConfig,
    config: &'a SchedulerConfig,
    clock: Ns,
    queue: VecDeque<Queued>,
    running: Vec<Running>,
    admission: AdmissionController,
    cache: BuildCache,
    costs: CostCache,
    outcomes: Vec<(QueryId, Outcome)>,
    obs: Recorder,
}

impl Run<'_> {
    /// Settle a refused query: record the typed shed and push its outcome.
    fn reject(&mut self, id: QueryId, query: &JoinQuery, reason: RejectReason) {
        self.obs.shed(id, query, self.clock, &reason);
        let name = query.name.clone();
        self.outcomes
            .push((id, Outcome::Rejected { id, name, reason }));
    }

    /// Give back what an attempt holds: its memory reservation, then its
    /// pin on the build cache.
    fn release(&mut self, id: QueryId, query: &JoinQuery) {
        let _ = self.admission.release(id);
        if let Some(k) = query.build_key {
            self.cache
                .release_range(k, query.build_range.unwrap_or(FULL_RANGE));
        }
    }

    /// The event loop: replay `plan`, land `arrivals` (sorted by time),
    /// admit, arbitrate, and advance until every query has an outcome.
    fn drive(
        mut self,
        mut arrivals: VecDeque<(QueryId, JoinQuery)>,
        plan: &FaultPlan,
    ) -> ServeResult {
        let retirements = plan.retirements();
        let kernel_faults = plan.kernel_faults();
        let transitions = plan.transitions();
        let mut next_retire = 0usize;
        let mut next_kfault = 0usize;
        let mut next_transition = 0usize;

        loop {
            let clock = self.clock;
            // --- Fault events due at this instant.
            while next_retire < retirements.len() && retirements[next_retire].0 .0 <= clock.0 {
                let (_, bytes) = retirements[next_retire];
                next_retire += 1;
                let before = self.admission.capacity();
                self.admission.retire(bytes);
                let retired_now = before.saturating_sub(self.admission.capacity());
                // The retired pages tear resident partitioned builds:
                // trip the circuit breaker so followers rebuild instead
                // of sharing stale state. Memoized pricings go with them
                // (the capacity change alters future grants; a wholesale
                // flush keeps the invalidation story uniform).
                let quarantined = self.cache.quarantine_all() as u64;
                self.costs.flush();
                self.obs.ecc_retirement(clock, retired_now, quarantined);
                // Shrink-in-place rungs: before revoking anyone, reclaim
                // running queries' optional cache shares — each a priced,
                // traced revision — until the shrunk device fits its
                // reservations again or no cache grant is left to take.
                if self.config.resilience.elastic() {
                    self.reclaim_cache(|a| a.overcommitted(), "ecc-retirement");
                }
                // Revoke reservations until the shrunk device fits them.
                while self.admission.overcommitted().0 > 0 {
                    let Some(vi) = victim_index(&self.running) else {
                        break;
                    };
                    let victim = self.running.swap_remove(vi);
                    self.recover_or_shed(victim, FaultCause::Revoked);
                }
            }
            while next_kfault < kernel_faults.len() && kernel_faults[next_kfault].0 <= clock.0 {
                let strike = next_kfault as u64;
                next_kfault += 1;
                // Deterministic victim among GPU-resident queries: rank
                // by id, pick by a seed-derived roll. An idle GPU means
                // the fault fizzles.
                let mut ids: Vec<QueryId> = self
                    .running
                    .iter()
                    .filter(|r| r.uses_gpu)
                    .map(|r| r.id)
                    .collect();
                if ids.is_empty() {
                    continue;
                }
                ids.sort_unstable();
                let pick =
                    ids[(splitmix64(plan.seed ^ 0xC0DE ^ strike) % ids.len() as u64) as usize];
                let Some(vi) = self.running.iter().position(|r| r.id == pick) else {
                    continue;
                };
                self.obs.fault(
                    "kernel-fault",
                    clock,
                    vec![Attr::str("victim", pick.to_string())],
                );
                let victim = self.running.swap_remove(vi);
                self.recover_or_shed(victim, FaultCause::Transient);
            }

            // --- Admit while memory and the concurrency cap allow.
            self.admit_ready();

            let next_arrival_at = arrivals.front().map(|(_, q)| q.arrival.0);
            if self.running.is_empty() && next_arrival_at.is_none() {
                // Sleeping retries may still wake; jump to the earliest.
                let next_wake = self
                    .queue
                    .iter()
                    .map(|q| q.eligible_at.0)
                    .filter(|&t| t > clock.0)
                    .fold(f64::INFINITY, f64::min);
                if next_wake.is_finite() {
                    self.clock = Ns(next_wake);
                    continue;
                }
                // Anything still queued can never start (no completions
                // left to free memory): shed it as over-capacity backlog.
                while let Some(q) = self.queue.pop_front() {
                    let floor = AdmissionController::min_reserve(&q.query, self.hw);
                    let reason = RejectReason::OverCapacity {
                        needed: floor,
                        capacity: self.admission.capacity(),
                    };
                    self.reject(q.id, &q.query, reason);
                }
                break;
            }

            // --- Arbitrated speeds for the current in-flight set, priced
            // on the degraded machine (factors are piecewise-constant
            // between fault transitions, which bound every step below).
            let link_factor = plan.link_factor(clock);
            let cpu_factor = plan.cpu_factor(clock);
            let loads: Vec<ResourceVector> = self
                .running
                .iter()
                .map(|r| degraded_vector(r.demand, link_factor, cpu_factor))
                .collect();
            let weights: Vec<f64> = self.running.iter().map(|r| r.weight).collect();
            let rates = fair_share_rates(&loads, &weights);

            // --- Gauge observation at this decision point: allocator
            // occupancy plus aggregate utilization priced off the same
            // arbitrated rates that drive the fluid state.
            let util = aggregate_utilization(&loads, &rates);
            self.obs.sample_gauges(
                clock,
                &GaugeSample {
                    gpu_used: self.admission.reserved(),
                    gpu_capacity: self.admission.capacity(),
                    gpu_requested: self.admission.requested(),
                    gpu_fragmentation: self.admission.fragmentation(),
                    gpu_occupancy_ppm: self.admission.occupancy_ppm(),
                    link_util_ppm: utilization_ppm(util.link),
                    sm_util_ppm: utilization_ppm(util.compute),
                    gpu_mem_util_ppm: utilization_ppm(util.gpu_mem),
                    cpu_util_ppm: utilization_ppm(util.cpu),
                    running: self.running.len() as u64,
                    queued: self.queue.len() as u64,
                },
            );

            // --- Time to the next event.
            let t_complete = self
                .running
                .iter()
                .zip(&rates)
                .map(|(r, &s)| r.remaining / s.max(1e-12))
                .fold(f64::INFINITY, f64::min);
            // Epoch batching: with work already in flight, the arrival
            // wake is deferred to the k-th pending arrival (k =
            // min(arrival_batch, pending)) so a burst is drained and
            // admitted in one pass; completions, fault transitions, and
            // retry wakes still fire on time and drain whatever is due.
            // An idle machine (or batch = 1) wakes on the very next
            // arrival — the classic loop, reproduced exactly.
            let t_arrival = if self.config.arrival_batch > 1 && !self.running.is_empty() {
                let k = self.config.arrival_batch.min(arrivals.len());
                arrivals
                    .get(k.saturating_sub(1))
                    .map_or(f64::INFINITY, |(_, q)| (q.arrival.0 - clock.0).max(0.0))
            } else {
                next_arrival_at.map_or(f64::INFINITY, |at| (at - clock.0).max(0.0))
            };
            while next_transition < transitions.len() && transitions[next_transition].0 <= clock.0 {
                next_transition += 1;
            }
            let t_fault = transitions
                .get(next_transition)
                .map_or(f64::INFINITY, |t| t.0 - clock.0);
            let t_wake = self
                .queue
                .iter()
                .map(|q| q.eligible_at.0 - clock.0)
                .filter(|&d| d > 0.0)
                .fold(f64::INFINITY, f64::min);
            let dt = t_complete.min(t_arrival).min(t_fault).min(t_wake);
            if !dt.is_finite() {
                // Nothing running and no arrivals: handled above.
                break;
            }

            // --- Advance the fluid state.
            self.obs.advance(dt, self.running.len());
            self.clock += Ns(dt);
            let clock = self.clock;
            for (r, &s) in self.running.iter_mut().zip(&rates) {
                r.remaining = (r.remaining - dt * s).max(0.0);
            }

            // --- Arrivals land in the queue (or bounce off its limit);
            // under epoch batching the whole due batch lands here at
            // once and the next admit pass handles it in a single sweep.
            while arrivals
                .front()
                .is_some_and(|(_, q)| q.arrival.0 <= clock.0)
            {
                let Some((id, query)) = arrivals.pop_front() else {
                    break;
                };
                if let Some(key) = query.op.unfit_build_key(&query.workload) {
                    self.reject(id, &query, RejectReason::InvalidBuildKey { key });
                    continue;
                }
                if self.queue.len() >= self.config.max_queue {
                    let reason = RejectReason::QueueFull {
                        limit: self.config.max_queue,
                    };
                    self.reject(id, &query, reason);
                    continue;
                }
                self.obs.enqueue(id, &query, query.arrival);
                let eligible_at = query.arrival;
                enqueue(
                    &mut self.queue,
                    Queued {
                        id,
                        query,
                        eligible_at,
                        fault: FaultOutcome::default(),
                        attempts_at_rung: 0,
                    },
                );
            }

            // --- Completions.
            let mut i = 0;
            while i < self.running.len() {
                if self.running[i].remaining <= 1e-9 {
                    let r = self.running.swap_remove(i);
                    self.release(r.id, &r.query);
                    let c = CompletedQuery {
                        id: r.id,
                        name: r.query.name.clone(),
                        arrival: r.query.arrival,
                        start: r.start,
                        finish: clock,
                        dedicated: r.dedicated,
                        report: r.report,
                        reserved: r.reservation.reserved,
                        build_cache_hit: r.build_cache_hit,
                        operator: r.op_label,
                        fault: r.fault,
                    };
                    self.obs.complete(&c, r.query.deadline, self.hw);
                    self.outcomes.push((c.id, Outcome::Completed(Box::new(c))));
                } else {
                    i += 1;
                }
            }
        }

        let mut outcomes = self.outcomes;
        outcomes.sort_by_key(|(id, _)| *id);
        let outcomes: Vec<Outcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        let (trace, telemetry, slo, metrics) = self.obs.finish(
            self.clock,
            self.admission.peak_reserved,
            self.admission.initial_capacity(),
        );
        ServeResult {
            outcomes,
            metrics,
            trace,
            telemetry,
            slo,
        }
    }

    /// Recover a faulted in-flight query (retry / shrink / downgrade per
    /// the resilience policy) or shed it with a typed reason. The
    /// victim's reservation and cache pin are released either way; its
    /// partial work is lost and a recovered attempt restarts from
    /// scratch.
    fn recover_or_shed(&mut self, victim: Running, cause: FaultCause) {
        let clock = self.clock;
        self.release(victim.id, &victim.query);
        let mut q = Queued {
            id: victim.id,
            query: victim.query,
            eligible_at: clock,
            fault: victim.fault,
            attempts_at_rung: victim.attempts_at_rung,
        };
        match cause {
            FaultCause::Transient => {
                q.fault.retries += 1;
                q.attempts_at_rung += 1;
            }
            FaultCause::Revoked => {
                q.fault.revocations += 1;
                self.obs.revoked(q.id, clock);
            }
        }
        if !self.config.resilience.recovers() {
            let reason = RejectReason::Faulted {
                fault: cause.label().to_string(),
                retries: q.fault.retries,
            };
            self.reject(q.id, &q.query, reason);
            return;
        }
        match cause {
            // First revocation: retry on the same rung asking for less
            // optional cache. Repeat offenders descend the ladder.
            FaultCause::Revoked => {
                if q.fault.revocations <= 1 {
                    q.fault.grant_shrinks += 1;
                } else {
                    q.descend(&mut self.obs, clock, "repeat-revocation");
                }
            }
            // Retries exhausted on this rung: descend.
            FaultCause::Transient => {
                if q.attempts_at_rung > MAX_RETRIES {
                    q.descend(&mut self.obs, clock, "retries-exhausted");
                }
            }
        }
        // Back off before re-admission, spending at most the remaining
        // deadline budget (a wake past the deadline is a guaranteed
        // shed).
        let attempt = q.fault.retries + q.fault.revocations - 1;
        let slack = q.query.deadline.map(|d| d - (clock - q.query.arrival));
        let delay = backoff(q.id, attempt, slack);
        self.obs.retry(q.id, clock, cause.label(), attempt, delay);
        q.eligible_at = clock + delay;
        enqueue(&mut self.queue, q);
    }

    /// Shrink-in-place: reclaim optional cache from running queries —
    /// lowest priority first, biggest cache grant first within a class,
    /// most recent submission on ties — until `need` reports zero bytes
    /// missing or no eligible victim remains. Every revision is priced
    /// through the link cost model ([`AdmissionController::revise`]),
    /// traced as a `grant-revision` event, and re-prices the victim's
    /// remaining work under its revised grant; the victim's *answer*
    /// cannot change (a cache budget only moves placement and time).
    fn reclaim_cache(
        &mut self,
        need: impl Fn(&AdmissionController) -> Bytes,
        reason: &'static str,
    ) {
        let clock = self.clock;
        loop {
            let missing = need(&self.admission);
            if missing.0 == 0 {
                break;
            }
            let Some(vi) = self
                .running
                .iter()
                .enumerate()
                .filter(|(_, r)| r.reservation.cache_grant.0 > 0 && r.revisions < MAX_REVISIONS)
                .min_by_key(|(_, r)| {
                    (
                        r.query.priority,
                        Reverse(r.reservation.cache_grant.0),
                        Reverse(r.id),
                    )
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let r = &mut self.running[vi];
            let ask = missing.min(r.reservation.cache_grant);
            let out = match self
                .admission
                .revise(r.id, GrantRevision::Shrink(ask), self.hw)
            {
                Ok(out) if out.delta.0 > 0 => out,
                // Nothing movable on this victim: exhaust it so the
                // search cannot pick it again and spin.
                _ => {
                    r.revisions = MAX_REVISIONS;
                    continue;
                }
            };
            r.revisions += 1;
            r.reservation = out.grant;
            // Re-price the rest of the query under the revised grant:
            // same workload, same operator, smaller cache — placement
            // and timing change, the answer cannot. Re-pricings go
            // through the memo too: a repeat shrink to a grant already
            // priced replays the identical report.
            let (priced, pricing) = self.costs.price(&r.query, &out.grant, self.hw);
            self.obs.cost_cache(pricing, clock);
            if let Ok(rep) = priced {
                let demand =
                    ResourceDemand::from_report(&rep, r.build_cache_hit, probe_frac(&r.query));
                let frac = if r.dedicated.0 > 0.0 {
                    (r.remaining / r.dedicated.0).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                r.remaining = demand.work.0 * frac + out.reclaim.0;
                r.demand = demand.vector;
                r.dedicated = demand.work;
                r.report = rep;
            } else {
                // A shrunk re-run cannot OOM harder than the original;
                // if it somehow does, keep the old pricing and only pay
                // the reclaim time.
                r.remaining += out.reclaim.0;
            }
            self.obs.revise(r.id, &r.query, clock, &out, reason);
        }
    }

    /// Admit queued queries in priority order while memory, the
    /// concurrency cap, and deadlines allow. Entries sleeping out a
    /// retry backoff are skipped until eligible.
    fn admit_ready(&mut self) {
        let (clock, hw) = (self.clock, self.hw);
        let recovers = self.config.resilience.recovers();
        'admit: while self.running.len() < self.config.max_inflight {
            // Highest-priority eligible entry (sleepers excluded).
            let Some(pos) = self.queue.iter().position(|q| q.eligible_at.0 <= clock.0) else {
                break;
            };

            // Deadline shedding: a query whose budget is already spent
            // queueing will miss it regardless — drop it now.
            if let Some(deadline) = self.queue[pos].query.deadline {
                let waited = clock - self.queue[pos].query.arrival;
                if waited.0 > deadline.0 {
                    let Some(q) = self.queue.remove(pos) else {
                        continue;
                    };
                    let reason = RejectReason::DeadlineExceeded { deadline, waited };
                    self.reject(q.id, &q.query, reason);
                    continue;
                }
            }

            // Floors exceeding the (possibly retired) capacity: when the
            // shortfall comes from a retirement, resilience descends the
            // ladder in place — the CPU radix floor is zero, so descent
            // always terminates. A query too big for the *pristine*
            // machine is shed with the typed reason as always.
            loop {
                let floor = AdmissionController::min_reserve(&self.queue[pos].query, hw);
                if floor <= self.admission.capacity() {
                    break;
                }
                let shrunk_by_fault = self.admission.capacity() < self.admission.initial_capacity();
                if recovers
                    && shrunk_by_fault
                    && self.queue[pos].descend(&mut self.obs, clock, "capacity-floor")
                {
                    continue;
                }
                let Some(q) = self.queue.remove(pos) else {
                    continue 'admit;
                };
                let reason = RejectReason::OverCapacity {
                    needed: floor,
                    capacity: self.admission.capacity(),
                };
                self.reject(q.id, &q.query, reason);
                continue 'admit;
            }

            let shrink = self.queue[pos].fault.grant_shrinks;
            let id = self.queue[pos].id;
            let reservation =
                match self
                    .admission
                    .try_admit_shrunk(id, &self.queue[pos].query, hw, shrink)
                {
                    Ok(r) => r,
                    Err(_) => {
                        // Backpressure: memory is busy. A query *without* a
                        // deadline just waits for a completion (head-of-line
                        // blocking is intentional: priority order is strict,
                        // so a big high-priority query is not starved by
                        // small ones slipping past it). Under the elastic
                        // policy a deadline-holding arrival cannot afford
                        // the wait: it reclaims running queries' optional
                        // cache down to its own floor and retries once.
                        if !(self.config.resilience.elastic()
                            && self.queue[pos].query.deadline.is_some())
                        {
                            break;
                        }
                        let floor = AdmissionController::min_reserve(&self.queue[pos].query, hw);
                        self.reclaim_cache(
                            |a| floor.saturating_sub(a.available()),
                            "burst-admission",
                        );
                        match self.admission.try_admit_shrunk(
                            id,
                            &self.queue[pos].query,
                            hw,
                            shrink,
                        ) {
                            Ok(r) => r,
                            Err(_) => break,
                        }
                    }
                };
            let Some(mut q) = self.queue.remove(pos) else {
                // Unreachable (pos indexes a live entry); stop admitting
                // rather than panic with the reservation held.
                let _ = self.admission.release(id);
                break;
            };

            // Build-side sharing: exact builds hit as always, and a
            // query over a sub-range of a resident build of the same
            // family rides the covering state ([`crate::BuildHit`]).
            let hit = match q.query.build_key {
                Some(k) => {
                    let r_bytes = q.query.workload.r.len() as u64 * TUPLE_BYTES;
                    let range = q.query.build_range.unwrap_or(FULL_RANGE);
                    let served = self.cache.acquire_range(k, r_bytes, range);
                    self.obs.build_cache(served, clock);
                    served.is_hit()
                }
                None => false,
            };

            // Functional dedicated run with the granted cache budget,
            // memoized: a repeat (workload, grant) pricing replays the
            // byte-identical report instead of re-running the operator.
            let (priced, pricing) = self.costs.price(&q.query, &reservation, hw);
            self.obs.cost_cache(pricing, clock);
            let report = match priced {
                Ok(rep) => rep,
                Err(e) => {
                    self.release(q.id, &q.query);
                    // OOM inside the operator: descend and retry
                    // immediately (the radix floor never OOMs).
                    if recovers && q.descend(&mut self.obs, clock, "oom") {
                        q.eligible_at = clock;
                        enqueue(&mut self.queue, q);
                        continue;
                    }
                    self.reject(q.id, &q.query, RejectReason::Oom(e));
                    continue;
                }
            };

            self.obs.admit(
                q.id,
                clock,
                q.query.op.label(),
                reservation.reserved,
                reservation.cache_grant,
                hit,
                q.fault.grant_shrinks,
            );
            let demand = ResourceDemand::from_report(&report, hit, probe_frac(&q.query));
            self.running.push(Running {
                id: q.id,
                start: clock,
                remaining: demand.work.0,
                demand: demand.vector,
                weight: q.query.priority.max(1) as f64,
                dedicated: demand.work,
                report,
                reservation,
                build_cache_hit: hit,
                uses_gpu: q.query.op.uses_gpu(),
                op_label: q.query.op.label(),
                fault: q.fault,
                attempts_at_rung: q.attempts_at_rung,
                revisions: 0,
                query: q.query,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Operator;
    use triton_core::reference_join;
    use triton_datagen::WorkloadSpec;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(512)
    }

    fn batch(n: usize, arrival_gap: f64) -> Vec<JoinQuery> {
        (0..n)
            .map(|i| {
                let mut spec = WorkloadSpec::paper_default(32, 512);
                spec.seed ^= i as u64;
                JoinQuery::new(format!("t{i}"), spec.generate(), Ns(i as f64 * arrival_gap))
            })
            .collect()
    }

    #[test]
    fn all_complete_with_exact_results() {
        let sched = Scheduler::new(hw(), SchedulerConfig::default());
        let queries = batch(4, 0.0);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference_join(&q.workload))
            .collect();
        let res = sched.run(queries);
        assert_eq!(res.metrics.completed, 4);
        for (o, exp) in res.outcomes.iter().zip(&expected) {
            let c = o.completed().expect("query should complete");
            assert_eq!(&c.report.result, exp, "{} result mismatch", c.name);
            assert!(c.fault.clean(), "no faults on a clean run");
            assert_eq!(c.operator, "triton");
        }
        assert!(res.metrics.peak_gpu_reserved <= res.metrics.gpu_capacity);
        assert!(res.metrics.peak_concurrency >= 2);
        assert_eq!(res.metrics.faults_injected, 0);
    }

    #[test]
    fn empty_fault_plan_matches_plain_run() {
        let a = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(4, 0.0));
        let b = Scheduler::new(hw(), SchedulerConfig::default())
            .run_with_faults(batch(4, 0.0), &FaultPlan::none());
        assert_eq!(a.metrics, b.metrics, "FaultPlan::none must be a no-op");
    }

    #[test]
    fn concurrent_no_slower_than_serial() {
        let conc = Scheduler::new(hw(), SchedulerConfig::default())
            .run(batch(4, 0.0))
            .metrics
            .makespan;
        let serial = Scheduler::new(hw(), SchedulerConfig::serial())
            .run(batch(4, 0.0))
            .metrics
            .makespan;
        assert!(
            conc.0 <= serial.0 * 1.0001,
            "concurrent {conc} must not exceed serial {serial}"
        );
    }

    #[test]
    fn queue_full_rejects_typed() {
        let sched = Scheduler::new(
            hw(),
            SchedulerConfig {
                max_inflight: 1,
                max_queue: 1,
                ..SchedulerConfig::default()
            },
        );
        let res = sched.run(batch(4, 0.0));
        let rejected = res
            .outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(RejectReason::QueueFull { .. })))
            .count();
        assert!(rejected >= 1, "tiny queue must bounce arrivals");
        assert_eq!(res.metrics.completed + res.metrics.rejected, 4);
    }

    #[test]
    fn deadline_sheds_queued_queries() {
        let mut queries = batch(3, 0.0);
        // Arrive together; queue behind each other at concurrency 1 with
        // an impossible deadline for the stragglers.
        for q in &mut queries[1..] {
            q.deadline = Some(Ns(1.0));
        }
        let res = Scheduler::new(hw(), SchedulerConfig::serial()).run(queries);
        let shed = res
            .outcomes
            .iter()
            .filter(|o| matches!(o.rejection(), Some(RejectReason::DeadlineExceeded { .. })))
            .count();
        assert_eq!(shed, 2);
        assert_eq!(res.metrics.completed, 1);
    }

    #[test]
    fn build_sharing_hits_and_speeds_up() {
        let base = WorkloadSpec::paper_default(32, 512).generate();
        let mk = |share: bool| {
            (0..4)
                .map(|i| {
                    let w = if i == 0 {
                        base.clone()
                    } else {
                        JoinQuery::probe_batch(&base, 100 + i)
                    };
                    let mut q = JoinQuery::new(format!("b{i}"), w, Ns::ZERO);
                    if share {
                        q.build_key = Some(42);
                    }
                    q
                })
                .collect::<Vec<_>>()
        };
        let shared = Scheduler::new(hw(), SchedulerConfig::serial()).run(mk(true));
        let solo = Scheduler::new(hw(), SchedulerConfig::serial()).run(mk(false));
        assert_eq!(shared.metrics.build_cache_hits, 3);
        assert_eq!(solo.metrics.build_cache_hits, 0);
        assert!(
            shared.metrics.makespan.0 < solo.metrics.makespan.0,
            "sharing the partitioned build side must save work"
        );
        // Results stay exact despite the discount.
        for c in shared.completed() {
            assert!(c.report.result.matches > 0);
        }
    }

    #[test]
    fn cpu_and_gpu_queries_overlap() {
        let mut queries = batch(2, 0.0);
        queries[1].op = Operator::CpuRadix(triton_core::CpuRadixJoin::power9(
            triton_core::HashScheme::BucketChaining,
        ));
        let res = Scheduler::new(hw(), SchedulerConfig::default()).run(queries);
        assert_eq!(res.metrics.completed, 2);
        // Disjoint executors: the makespan is close to the slower of the
        // two dedicated runs, far below their sum.
        let durs: Vec<f64> = res.completed().map(|c| c.dedicated.0).collect();
        let sum: f64 = durs.iter().sum();
        let max = durs.iter().cloned().fold(0.0, f64::max);
        assert!(res.metrics.makespan.0 < sum * 0.95);
        assert!(res.metrics.makespan.0 >= max * 0.999);
    }

    #[test]
    fn kernel_fault_retries_and_completes_exactly() {
        let queries = batch(2, 0.0);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| reference_join(&q.workload))
            .collect();
        // Strike mid-run: the clean makespan bounds where "mid-run" is.
        let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2, 0.0));
        let plan = FaultPlan::with_seed(11).kernel_fault(Ns(clean.metrics.makespan.0 * 0.5));
        let res = Scheduler::new(hw(), SchedulerConfig::default()).run_with_faults(queries, &plan);
        assert_eq!(res.metrics.completed, 2, "retry must recover the victim");
        assert_eq!(res.metrics.retries, 1);
        assert_eq!(res.metrics.faults_injected, 1);
        assert!(
            res.metrics.makespan.0 > clean.metrics.makespan.0,
            "lost work plus backoff must cost time"
        );
        for (o, exp) in res.outcomes.iter().zip(&expected) {
            assert_eq!(&o.completed().unwrap().report.result, exp);
        }
    }

    #[test]
    fn no_resilience_sheds_the_kernel_fault_victim() {
        let clean = Scheduler::new(hw(), SchedulerConfig::default()).run(batch(2, 0.0));
        let plan = FaultPlan::with_seed(11).kernel_fault(Ns(clean.metrics.makespan.0 * 0.5));
        let res = Scheduler::new(hw(), SchedulerConfig::no_resilience())
            .run_with_faults(batch(2, 0.0), &plan);
        assert_eq!(res.metrics.shed_faulted, 1);
        assert_eq!(res.metrics.completed, 1);
        let lost = res
            .outcomes
            .iter()
            .find_map(Outcome::rejection)
            .expect("one query must be lost");
        assert!(lost.to_string().contains("kernel-fault"), "{lost}");
    }
}
