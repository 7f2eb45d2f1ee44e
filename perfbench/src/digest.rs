//! Digests of simulated statistics and generated inputs.
//!
//! A host-only change (one that should leave every simulated figure
//! alone) shows it by leaving the run's digest byte-identical.

use triton_core::JoinReport;
use triton_datagen::Relation;

/// Streaming FNV-1a (64-bit) over a canonical rendering of the values fed
/// to it. Floats are fed by bit pattern, so any simulated drift shows.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Feed a string (length-prefixed, so concatenations stay distinct).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feed an integer as one word (a word-wise FNV step, so digesting
    /// millions of tuples stays cheap).
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01B3);
        self.0 ^= self.0 >> 29;
    }

    /// Feed a float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feed a whole join report: totals, phases with their counters,
    /// placement and the functional result.
    pub fn report(&mut self, r: &JoinReport) {
        self.str(&r.name);
        self.f64(r.total.0);
        self.u64(r.tuples_actual);
        self.u64(r.tuples_modeled);
        self.u64(r.result.matches);
        self.u64(r.result.checksum);
        for p in &r.phases {
            self.str(&p.name);
            self.f64(p.time.0);
            if let Some(c) = &p.cost {
                self.str(&format!("{c:?}"));
            }
        }
        if let Some(pl) = &r.placement {
            self.str(&format!("{pl:?}"));
        }
    }

    /// Feed a relation's columns.
    pub fn relation(&mut self, rel: &Relation) {
        self.u64(rel.len() as u64);
        for (k, r) in rel.iter() {
            self.u64(k);
            self.u64(r);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
