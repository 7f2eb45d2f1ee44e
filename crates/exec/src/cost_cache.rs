//! Memoized operator pricing for the serving hot path.
//!
//! Admission prices every query by *running* its operator functionally
//! ([`crate::query::Operator::run`]) — a pure function of the granted
//! operator configuration, the workload's relation data, and the (fixed)
//! hardware model. Repeat tenants therefore re-derive byte-identical
//! [`JoinReport`]s on every arrival. The [`CostCache`] memoizes those
//! reports keyed by a 128-bit fingerprint of `(workload signature,
//! granted operator)`, so a hit skips partitioning, planning, and the
//! roofline entirely while remaining semantically transparent: the
//! served report is a clone of the one the miss computed.
//!
//! # Key and invalidation
//!
//! The fingerprint hashes the *actual relation columns* (two probe
//! batches share `R` and a spec but differ in `S`, and must not
//! collide), the workload spec, and the granted operator's full
//! configuration (cache grant included — the same query under a
//! different grant runs a different placement). The column part is
//! content-addressed but computed at most once per
//! [`crate::SharedWorkload`] and stored with its immutable data: every
//! clone of a query reuses it, while separately built byte-equal
//! workloads still fingerprint equal and hit each other. Plan operators
//! bypass the cache: their inputs live in the plan itself. Only
//! successful runs are cached — an OOM depends on the grant under which
//! it happened and must be re-observed, never replayed. ECC retirement
//! flushes the cache wholesale: the capacity change alters future
//! *grants*, not cached results, but a flush is cheap and keeps the
//! invalidation story uniform (see DESIGN.md §15).

use std::collections::{BTreeMap, VecDeque};

use triton_core::JoinReport;
use triton_datagen::Workload;

use crate::admission::{operator_with_grant, Reservation};
use crate::query::{JoinQuery, Operator};

/// 128-bit fingerprint identifying `(workload, granted operator)`.
pub type CostKey = (u64, u64);

/// 128-bit fingerprint of a workload's four relation columns, the data
/// part of a [`CostKey`]. Computed once per [`crate::SharedWorkload`] and
/// stored with it.
///
/// The columns dominate the input, so they are mixed a whole `u64` lane
/// at a time (a splitmix-style multiply-xorshift per word and lane) —
/// fingerprinting must stay well under the pricing run it can replace,
/// or the memo would cost more than it saves on sustained load.
pub(crate) fn fingerprint_columns(w: &Workload) -> CostKey {
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^ (x >> 29)
    }
    let mut lo = 0xcbf2_9ce4_8422_2325u64;
    let mut hi = 0x6c62_272e_07bb_0142u64;
    for vals in [&w.r.keys, &w.r.rids, &w.s.keys, &w.s.rids] {
        // Length first: concatenation across columns cannot alias.
        lo = mix(lo, vals.len() as u64);
        hi = mix(hi, (vals.len() as u64).rotate_left(17));
        for &v in vals.iter() {
            lo = mix(lo, v);
            hi = mix(hi, v.rotate_left(17));
        }
    }
    (lo, hi)
}

/// Bounded memo of operator pricing runs; see the module docs.
#[derive(Debug, Default)]
pub struct CostCache {
    enabled: bool,
    entries: BTreeMap<CostKey, JoinReport>,
    order: VecDeque<CostKey>,
}

/// What one [`CostCache::price`] call did with the memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Served the memoized report; the operator did not run.
    Hit,
    /// Ran the operator and memoized its report.
    Miss,
    /// Ran the operator outside the memo: caching is off, the statement
    /// is uncacheable (a plan), or the run failed (an OOM is never
    /// memoized). The recorder counts it as neither hit nor miss.
    Bypass,
}

/// Entry bound: far above any realistic distinct-tenant population; a
/// runaway stream of unique workloads evicts in insertion order.
const COST_CACHE_CAP: usize = 512;

impl CostCache {
    /// New cache; when `enabled` is false every pricing bypasses the
    /// memo and nothing is stored, so the disabled path is
    /// byte-identical to the pre-cache scheduler.
    pub fn new(enabled: bool) -> Self {
        CostCache {
            enabled,
            ..CostCache::default()
        }
    }

    /// Whether the memo is live.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Fingerprint a query under its grant; `None` when this query's
    /// pricing is not cacheable (plan operators).
    ///
    /// The relation-column part is the fingerprint stored with the
    /// [`crate::SharedWorkload`], so a key reads the columns only the
    /// first time any query sharing the workload is priced.
    pub fn key(query: &JoinQuery, granted: &Operator) -> Option<CostKey> {
        if matches!(query.op, Operator::Plan(_)) {
            return None;
        }
        let (mut lo, mut hi) = query.workload.fingerprint();
        // The granted operator's debug encoding covers every field that
        // shapes execution (algorithms, hash scheme, skew and elastic
        // policies, and the grant-dependent cache budget), and the spec
        // covers the modeled-scale factors the report echoes. Short
        // strings: byte-at-a-time FNV is fine here.
        for byte in format!("{:?}|{:?}", granted, query.workload.spec).bytes() {
            lo = (lo ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            hi = (hi ^ u64::from(byte).rotate_left(17)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Some((lo, hi))
    }

    /// Price `query` under `grant`: memo hit when possible, otherwise
    /// run the granted operator and (on success) memoize the report.
    /// Returns the report together with what the memo did — the report
    /// is identical to calling [`Operator::run`] directly.
    pub fn price(
        &mut self,
        query: &JoinQuery,
        grant: &Reservation,
        hw: &triton_hw::HwConfig,
    ) -> (Result<JoinReport, triton_mem::OutOfMemory>, Pricing) {
        let op = operator_with_grant(query, grant);
        let key = if self.enabled {
            Self::key(query, &op)
        } else {
            None
        };
        if let Some(rep) = key.and_then(|k| self.entries.get(&k)) {
            return (Ok(rep.clone()), Pricing::Hit);
        }
        let out = op.run(&query.workload, hw);
        let (Some(k), Ok(rep)) = (key, &out) else {
            return (out, Pricing::Bypass);
        };
        if self.entries.len() >= COST_CACHE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
        if self.entries.insert(k, rep.clone()).is_none() {
            self.order.push_back(k);
        }
        (out, Pricing::Miss)
    }

    /// Drop every memoized report (ECC-retirement invalidation hook).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// Reports currently memoized.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triton_datagen::WorkloadSpec;
    use triton_hw::units::{Bytes, Ns};
    use triton_hw::HwConfig;

    fn hw() -> HwConfig {
        HwConfig::ac922().scaled(2048)
    }

    fn grant(cache: u64) -> Reservation {
        Reservation {
            reserved: Bytes(1 << 26),
            cache_grant: Bytes(cache),
            floor: Bytes(1 << 20),
        }
    }

    fn query(seed: u64) -> JoinQuery {
        let mut spec = WorkloadSpec::paper_default(2, 2048);
        spec.seed = seed;
        JoinQuery::new("t", spec.generate(), Ns::ZERO)
    }

    #[test]
    fn hit_is_byte_identical_to_the_run_it_replays() {
        let mut c = CostCache::new(true);
        let q = query(1);
        let (first, p1) = c.price(&q, &grant(0), &hw());
        let (second, p2) = c.price(&q, &grant(0), &hw());
        assert_eq!((p1, p2), (Pricing::Miss, Pricing::Hit));
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn distinct_grants_and_data_never_collide() {
        let mut c = CostCache::new(true);
        let q = query(1);
        assert_eq!(c.price(&q, &grant(0), &hw()).1, Pricing::Miss);
        // A different cache grant is a different placement: miss.
        assert_eq!(c.price(&q, &grant(1 << 24), &hw()).1, Pricing::Miss);
        // Same spec, different S data (a probe batch): miss.
        let mut probe = q.clone();
        probe.workload = JoinQuery::probe_batch(&q.workload, 99).into();
        assert_eq!(c.price(&probe, &grant(0), &hw()).1, Pricing::Miss);
        assert_eq!(c.len(), 3);
        c.flush();
        assert!(c.is_empty());
    }

    #[test]
    fn key_is_content_addressed_and_fingerprinted_once() {
        let mut c = CostCache::new(true);
        // Two separately generated, byte-equal workloads share a key.
        let (a, b) = (query(1), query(1));
        assert_eq!(c.price(&a, &grant(0), &hw()).1, Pricing::Miss);
        assert!(a.workload.is_fingerprinted());
        assert!(!b.workload.is_fingerprinted());
        assert_eq!(c.price(&b, &grant(0), &hw()).1, Pricing::Hit);
        // A probe batch of the same R is different data.
        let probe = JoinQuery::new("t", JoinQuery::probe_batch(&a.workload, 7), Ns::ZERO);
        assert_eq!(c.price(&probe, &grant(0), &hw()).1, Pricing::Miss);
    }

    #[test]
    fn replacing_a_workload_never_replays_a_stale_key() {
        let mut c = CostCache::new(true);
        let mut q = query(1);
        let before = CostCache::key(&q, &q.op);
        assert_eq!(c.price(&q, &grant(0), &hw()).1, Pricing::Miss);
        q.workload = query(2).workload;
        assert!(
            !q.workload.is_fingerprinted(),
            "a new workload brings an empty slot"
        );
        assert_ne!(CostCache::key(&q, &q.op), before);
        assert_eq!(c.price(&q, &grant(0), &hw()).1, Pricing::Miss);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut c = CostCache::new(false);
        let q = query(1);
        let (_, p1) = c.price(&q, &grant(0), &hw());
        let (_, p2) = c.price(&q, &grant(0), &hw());
        assert_eq!((p1, p2), (Pricing::Bypass, Pricing::Bypass));
        assert!(c.is_empty());
    }
}
