//! End-to-end and per-layer benchmark of the simulated Triton join.
//!
//! Three workloads, each measured on the two clocks the system runs on:
//! the *simulated* clock (what the modelled AC922 would do; deterministic
//! for a seed) and the *host* clock (how long the emulator takes to
//! produce it).
//!
//! * `join-spill` — closed loop, one client: back-to-back out-of-core
//!   Triton joins at the paper's 2048 M-tuple point.
//! * `serve-repeat` — open loop: repeat statements over four build
//!   families, served on the throughput path.
//! * `serve-cold` — open loop: every arrival a distinct statement.
//!
//! The seed draws the data (and, for `serve-cold`, each statement's exact
//! size within 1/128 of its nominal one). The arrival schedules and
//! statement mixes are part of each workload's definition and do not
//! depend on it, so the simulated figures of different seeds stay
//! comparable.

pub mod digest;
pub mod join_spill;
pub mod layers;
pub mod serve;
pub mod spans;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use spans::Spans;

/// Capacity scale factor `EXPERIMENTS.md` is calibrated at.
pub const SCALE: u64 = 512;

/// The paper's Fig 13 Triton throughput at 2048 M tuples per relation.
pub const PAPER_FIG13_GTPS: f64 = 1.7;

/// Deadline of every served query, in mean dedicated service times.
pub const DEADLINE_SERVICE_TIMES: f64 = 10.0;

/// Attainment a load point must reach to count as sustained.
pub const SUSTAINED_PPM: u64 = 990_000;

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// The workloads, by the name the command line uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed-loop out-of-core join.
    JoinSpill,
    /// Open-loop repeat statements over shared build families.
    ServeRepeat,
    /// Open-loop distinct statements.
    ServeCold,
}

impl WorkloadKind {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::JoinSpill,
        WorkloadKind::ServeRepeat,
        WorkloadKind::ServeCold,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::JoinSpill => "join-spill",
            WorkloadKind::ServeRepeat => "serve-repeat",
            WorkloadKind::ServeCold => "serve-cold",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes of one run. [`Sizing::COMMITTED`] is what the command
/// measures; the tests use [`Sizing::SMALL`] to stay fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Capacity scale factor K.
    pub k: u64,
    /// `join-spill`: modelled M tuples per relation.
    pub join_m: u64,
    /// `serve-repeat`: modelled M tuples per relation of a build family.
    pub family_m: u64,
    /// Serving: modelled M tuples per relation of a fact join (the size of
    /// `fig_serve`'s fact tenants).
    pub fact_m: u64,
    /// `serve-cold`: modelled M tuples per relation of every other
    /// statement (the size of `fig_serve`'s dimension and CPU tenants),
    /// and of a TPC-H plan's lineitem.
    pub dim_m: u64,
    /// Arrivals of the load-1.0 point: enough that p99 of the completed
    /// queries has at least ten samples beyond it even after a few sheds.
    pub ref_arrivals: usize,
    /// Arrivals of every other load point and of the chaos point.
    pub point_arrivals: usize,
    /// Setups per run.
    pub setup_reps: usize,
}

impl Sizing {
    /// The benchmark's sizes.
    pub const COMMITTED: Sizing = Sizing {
        k: SCALE,
        join_m: 2048,
        family_m: 16,
        fact_m: 16,
        dim_m: 8,
        ref_arrivals: 1100,
        point_arrivals: 400,
        setup_reps: SETUP_REPS,
    };

    /// Reduced sizes for the benchmark's own tests.
    pub const SMALL: Sizing = Sizing {
        k: 4096,
        join_m: 64,
        family_m: 16,
        fact_m: 16,
        dim_m: 8,
        ref_arrivals: 40,
        point_arrivals: 12,
        setup_reps: 1,
    };
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether the value is on the simulated clock (or counts simulated
    /// work): deterministic for a seed.
    pub sim: bool,
}

/// An ordered metric set.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Record a host-clock (or host-memory) value.
    pub fn host(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, false);
    }

    /// Record a simulated value.
    pub fn sim(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, true);
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, sim: bool) {
        assert!(
            self.get(name).is_none(),
            "metric {name} recorded twice in one run"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            sim,
        });
    }

    /// Value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The simulated subset, for determinism comparisons.
    pub fn sim_only(&self) -> Vec<(String, f64)> {
        self.0
            .iter()
            .filter(|m| m.sim)
            .map(|m| (m.name.clone(), m.value))
            .collect()
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted (joins, or submitted queries over all points
    /// and sweeps).
    pub attempted: u64,
    /// Operations answered wrongly, plus sweeps whose simulated outcome
    /// differed from the first sweep's.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (empty unless traced).
    pub layers: Metrics,
    /// Digest of every simulated statistic of the run.
    pub sim_digest: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Spans recorded around each layer call (empty unless traced).
    pub spans: Spans,
}

/// Run one workload for `seconds` of measurement.
pub fn run(kind: WorkloadKind, seed: u64, seconds: f64, trace: bool, sizing: &Sizing) -> RunResult {
    match kind {
        WorkloadKind::JoinSpill => join_spill::run(seed, seconds, trace, sizing),
        WorkloadKind::ServeRepeat | WorkloadKind::ServeCold => {
            serve::run(kind, seed, seconds, trace, sizing)
        }
    }
}

/// Derive an independent 64-bit seed from the run seed and a salt
/// (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile of a sample set (`p` in 0..=100); 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of a sample set; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The global allocator: the system allocator, counting the bytes live on
/// the heap and their high-water mark. The process's resident high-water
/// mark (`VmHWM`) is not used because it also counts the allocator's
/// retained free memory, which differs between runs of the same code with
/// the address-space layout.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's arguments;
// the counters do not touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Most bytes live on the heap at once since the process started, in MiB.
pub fn peak_heap_mib() -> f64 {
    PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1u64 << 20) as f64
}

/// Parts per million of `num / den`; 0 when `den` is 0.
pub fn ppm(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        (u128::from(num) * 1_000_000 / u128::from(den)) as f64
    }
}
