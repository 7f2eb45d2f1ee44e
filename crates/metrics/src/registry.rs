//! The metric registry: typed counters, gauges, and histograms, each
//! tracked as a run total *and* as fixed-width window deltas on the
//! simulated clock.
//!
//! ## Window semantics
//!
//! Windows are half-open intervals `[k·W, (k+1)·W)` of simulated
//! nanoseconds, `W` fixed at construction. Every mutation carries the
//! simulated timestamp of the decision that caused it; the registry
//! updates both the run total and the delta cell of the timestamp's
//! window. Windows with no activity are never materialised, so memory is
//! bounded by the number of *active* windows, not by makespan.
//!
//! ## Determinism rules
//!
//! All state lives in `BTreeMap`s keyed by metric name and window index;
//! counter and histogram arithmetic is integer-only. Exposition
//! ([`MetricsRegistry::expose_text`]: every total, every bucket, and
//! every window) iterates those maps, so two same-seed replays render
//! byte-identical output — the property CI pins by `cmp`-ing two dumps.
//!
//! ## Reconciliation
//!
//! [`MetricsRegistry::reconcile`] checks, for every metric, that the sum
//! of its window deltas (or the merge of its window histograms) equals
//! the run total *exactly* — zero tolerance. Property tests drive this
//! across shuffled submission orders, fault schedules, and grant-revision
//! schedules.

use crate::hist::Log2Histogram;
use std::collections::BTreeMap;

/// Last-value gauge with exact min/max/sample-count envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Gauge {
    /// Most recently set value.
    pub last: u64,
    /// Simulated timestamp of the last set.
    pub ts_ns: u64,
    /// Smallest value ever set.
    pub min: u64,
    /// Largest value ever set.
    pub max: u64,
    /// Number of sets.
    pub samples: u64,
}

/// Convert a simulated-clock timestamp expressed as `f64` nanoseconds
/// (the workspace's `Ns` representation) to the registry's integer
/// timeline. This is the single float→integer boundary: everything past
/// it is integer arithmetic. Negative and non-finite inputs clamp to 0.
pub fn sim_ns(ts: f64) -> u64 {
    if ts.is_finite() && ts > 0.0 {
        ts as u64
    } else {
        0
    }
}

/// Deterministic time-series metric registry (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    window_ns: u64,
    counters: BTreeMap<String, u64>,
    counter_windows: BTreeMap<String, BTreeMap<u64, u64>>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Log2Histogram>,
    hist_windows: BTreeMap<String, BTreeMap<u64, Log2Histogram>>,
}

impl MetricsRegistry {
    /// A registry with the given window width in simulated nanoseconds
    /// (clamped to at least 1).
    pub fn new(window_ns: u64) -> MetricsRegistry {
        MetricsRegistry {
            window_ns: window_ns.max(1),
            ..MetricsRegistry::default()
        }
    }

    /// The window width in simulated nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Window index owning a timestamp.
    pub fn window_of(&self, ts_ns: u64) -> u64 {
        ts_ns / self.window_ns
    }

    /// Add `delta` to a monotonic counter at simulated time `ts_ns`.
    pub fn counter_add(&mut self, name: &str, delta: u64, ts_ns: u64) {
        if delta == 0 {
            return;
        }
        let total = self.counters.entry(name.to_string()).or_insert(0);
        *total = total.saturating_add(delta);
        let w = ts_ns / self.window_ns;
        let cell = self
            .counter_windows
            .entry(name.to_string())
            .or_default()
            .entry(w)
            .or_insert(0);
        *cell = cell.saturating_add(delta);
    }

    /// Increment a monotonic counter by one.
    pub fn counter_inc(&mut self, name: &str, ts_ns: u64) {
        self.counter_add(name, 1, ts_ns);
    }

    /// Set a gauge. Returns `true` when the stored value changed (or the
    /// gauge is new) — callers use this to emit trace counter events only
    /// on transitions.
    pub fn gauge_set(&mut self, name: &str, value: u64, ts_ns: u64) -> bool {
        match self.gauges.get_mut(name) {
            Some(g) => {
                let changed = g.last != value;
                g.last = value;
                g.ts_ns = ts_ns;
                g.min = g.min.min(value);
                g.max = g.max.max(value);
                g.samples = g.samples.saturating_add(1);
                changed
            }
            None => {
                self.gauges.insert(
                    name.to_string(),
                    Gauge {
                        last: value,
                        ts_ns,
                        min: value,
                        max: value,
                        samples: 1,
                    },
                );
                true
            }
        }
    }

    /// Record one value into a named streaming histogram at `ts_ns`.
    pub fn observe(&mut self, name: &str, value: u64, ts_ns: u64) {
        self.hists
            .entry(name.to_string())
            .or_default()
            .record(value);
        let w = ts_ns / self.window_ns;
        self.hist_windows
            .entry(name.to_string())
            .or_default()
            .entry(w)
            .or_default()
            .record(value);
    }

    /// Run-total value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current gauge state, if ever set.
    pub fn gauge(&self, name: &str) -> Option<Gauge> {
        self.gauges.get(name).copied()
    }

    /// Run-total histogram, if any value was observed.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.get(name)
    }

    /// Per-window deltas of a counter, ascending by window index.
    pub fn counter_windows(&self, name: &str) -> Vec<(u64, u64)> {
        self.counter_windows
            .get(name)
            .map(|m| m.iter().map(|(&w, &d)| (w, d)).collect())
            .unwrap_or_default()
    }

    /// Per-window histograms of a metric, ascending by window index.
    pub fn histogram_windows(&self, name: &str) -> Vec<(u64, &Log2Histogram)> {
        self.hist_windows
            .get(name)
            .map(|m| m.iter().map(|(&w, h)| (w, h)).collect())
            .unwrap_or_default()
    }

    /// Names of all counters, in exposition order.
    pub fn counter_names(&self) -> Vec<&str> {
        self.counters.keys().map(String::as_str).collect()
    }

    /// Verify every window decomposition against its run total, exactly.
    /// Returns the list of mismatching metric names (empty ⇔ reconciled).
    pub fn reconcile(&self) -> Result<(), Vec<String>> {
        let mut bad = Vec::new();
        for (name, &total) in &self.counters {
            let winsum: u64 = self
                .counter_windows
                .get(name)
                .map(|m| m.values().fold(0u64, |a, &d| a.saturating_add(d)))
                .unwrap_or(0);
            if winsum != total {
                bad.push(format!("counter {name}: windows {winsum} != total {total}"));
            }
        }
        for (name, total) in &self.hists {
            let mut merged = Log2Histogram::new();
            if let Some(wins) = self.hist_windows.get(name) {
                for h in wins.values() {
                    merged.merge(h);
                }
            }
            if &merged != total {
                bad.push(format!(
                    "histogram {name}: window merge (count {}) != total (count {})",
                    merged.count(),
                    total.count()
                ));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(bad)
        }
    }

    /// Deterministic plain-text exposition: one line per metric plus one
    /// line per active window cell, in `BTreeMap` order. Byte-identical
    /// across same-seed replays.
    pub fn expose_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# triton-metrics window_ns={}\n", self.window_ns));
        for (name, total) in &self.counters {
            out.push_str(&format!("counter {name} {total}\n"));
        }
        for (name, g) in &self.gauges {
            out.push_str(&format!(
                "gauge {name} last={} min={} max={} samples={}\n",
                g.last, g.min, g.max, g.samples
            ));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "histogram {name} count={} sum={} min={} max={} p50={} p99={}\n",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.value_at_percentile(50),
                h.value_at_percentile(99)
            ));
            for (lower, n) in h.nonzero_buckets() {
                out.push_str(&format!("  bucket {lower} {n}\n"));
            }
        }
        for (name, wins) in &self.counter_windows {
            for (w, d) in wins {
                out.push_str(&format!("window {w} counter {name} {d}\n"));
            }
        }
        for (name, wins) in &self.hist_windows {
            for (w, h) in wins {
                out.push_str(&format!(
                    "window {w} histogram {name} count={} sum={}\n",
                    h.count(),
                    h.sum()
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_windows_reconcile_exactly() {
        let mut r = MetricsRegistry::new(100);
        for t in [0u64, 5, 99, 100, 101, 250, 999] {
            r.counter_add("x", t + 1, t);
        }
        let expect: u64 = [0u64, 5, 99, 100, 101, 250, 999]
            .iter()
            .map(|t| t + 1)
            .sum();
        assert_eq!(r.counter("x"), expect);
        let wins = r.counter_windows("x");
        assert_eq!(wins.first().map(|w| w.0), Some(0));
        assert!(r.reconcile().is_ok());
    }

    #[test]
    fn histogram_windows_merge_to_total() {
        let mut r = MetricsRegistry::new(1000);
        for i in 0..500u64 {
            r.observe("lat", i * 37 % 9001, i * 13);
        }
        assert!(r.reconcile().is_ok());
        let total = r.histogram("lat").map(Log2Histogram::count);
        assert_eq!(total, Some(500));
    }

    #[test]
    fn gauge_change_detection() {
        let mut r = MetricsRegistry::new(10);
        assert!(r.gauge_set("g", 5, 0));
        assert!(!r.gauge_set("g", 5, 1));
        assert!(r.gauge_set("g", 6, 2));
        let g = r.gauge("g").unwrap();
        assert_eq!((g.last, g.min, g.max, g.samples), (6, 5, 6, 3));
    }

    #[test]
    fn exposition_is_deterministic_and_ordered() {
        let build = || {
            let mut r = MetricsRegistry::new(50);
            r.counter_inc("b.count", 7);
            r.counter_inc("a.count", 3);
            r.gauge_set("z.gauge", 9, 11);
            r.observe("m.lat", 123, 60);
            r
        };
        let a = build();
        let b = build();
        assert_eq!(a.expose_text(), b.expose_text());
        let text = a.expose_text();
        // BTreeMap order: a.count before b.count.
        let ia = text.find("counter a.count").unwrap();
        let ib = text.find("counter b.count").unwrap();
        assert!(ia < ib, "{text}");
        assert!(text.contains("window 1 histogram m.lat count=1"), "{text}");
    }

    #[test]
    fn sim_ns_boundary_clamps() {
        assert_eq!(sim_ns(-5.0), 0);
        assert_eq!(sim_ns(f64::NAN), 0);
        assert_eq!(sim_ns(f64::INFINITY), 0);
        assert_eq!(sim_ns(1234.9), 1234);
    }

    #[test]
    fn reconcile_reports_nothing_for_empty_registry() {
        assert!(MetricsRegistry::new(1).reconcile().is_ok());
    }
}
