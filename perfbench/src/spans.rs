//! Host-clock spans recorded by the benchmark around each layer call.
//!
//! A span has a name, a start and an end (ns since the recorder was
//! made), the span that encloses it, and the run id. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its span's duration minus the part covered by its child spans.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// In-memory span recorder. When disabled, [`Spans::time`] only runs its
/// closure, so untraced runs pay nothing for it.
#[derive(Debug)]
pub struct Spans {
    /// Identifier shared by every span of this run.
    pub run_id: u64,
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder for one run.
    pub fn new(run_id: u64, enabled: bool) -> Spans {
        Spans {
            run_id,
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turn recording on or off for later calls.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: duration minus the time its children
    /// cover (children never overlap one another on one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Total self time per span name, in ms.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Total self time of every span named `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ms_by_name().get(name).copied().unwrap_or(0.0)
    }

    /// Render every span as JSON lines: name, start, end, self time,
    /// parent and run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent}}}\n",
                self.run_id, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(7, true);
        sp.time("outer", |sp| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            sp.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let by = sp.self_ms_by_name();
        assert!(by["inner"] >= 5.0);
        assert!(by["outer"] >= 2.0 && by["outer"] < by["inner"]);
        assert_eq!(sp.spans()[1].parent, Some(0));
        assert_eq!(sp.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut sp = Spans::new(1, false);
        assert_eq!(sp.time("x", |_| 3), 3);
        assert!(sp.spans().is_empty());
    }
}
