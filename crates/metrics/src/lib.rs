//! # triton-metrics
//!
//! Deterministic time-series telemetry for the simulated AC922 serving
//! stack. Everything here runs on the *simulated* clock and integer
//! arithmetic so that two same-seed replays — clean or chaos — expose
//! byte-identical telemetry:
//!
//! * [`Log2Histogram`] — fixed-boundary log2-bucket streaming histogram
//!   (16 linear sub-buckets per power of two, ≤ 6.25 % relative bucket
//!   width, bounded memory, no floats in bucket math);
//! * [`MetricsRegistry`] — typed counters, gauges, and histograms, each
//!   tracked as a run total plus fixed-width window deltas, with a
//!   [`MetricsRegistry::reconcile`] check that window sums equal run
//!   totals exactly;
//! * [`MetricsRegistry::expose_text`] / [`MetricsRegistry::expose_json`]
//!   — deterministic exposition formats pinned byte-for-byte by CI.
//!
//! The crate depends only on `triton-trace` (for its JSON string
//! escaper), the lowest crate of the stack, so any layer can be
//! instrumented without dependency cycles: `triton-mem`
//! reports allocator occupancy, `triton-hw` prices utilization samples,
//! `triton-exec` owns the registry and samples at scheduler decision
//! points.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hist;
pub mod registry;

pub use hist::Log2Histogram;
pub use registry::{sim_ns, Gauge, MetricsRegistry};
