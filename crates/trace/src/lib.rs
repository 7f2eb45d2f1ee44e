//! # triton-trace
//!
//! A dependency-free span/event tracing layer for the simulated Triton
//! join stack. Every layer above it — the hardware model, the join
//! operators, the serving scheduler — records what it did as typed
//! [`TraceEvent`]s on a shared [`Trace`], and exporters turn the record
//! into something a human can read: Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto ([`to_chrome_json`]), or lanes for the
//! ASCII timeline renderer in `triton-hw`.
//!
//! # Determinism contract
//!
//! This crate sits *below* `triton-hw`, so it cannot use the unit
//! newtypes; timestamps are raw `f64` nanoseconds of the **simulated**
//! clock, named `ts_ns`/`dur_ns` to keep the unit visible. The crate
//! never reads the wall clock (`Instant`/`SystemTime` are banned here by
//! triton-lint rule D2), never hashes (no `HashMap`), and records events
//! in call order — so a deterministic simulation produces a
//! byte-identical trace on every same-seed replay. `tests/replay.rs` in
//! `triton-exec` pins that property end to end.
//!
//! # Attribute conventions
//!
//! Attribute keys are `snake_case` with the unit as a suffix
//! (`bytes_moved_link`, `time_ns`, `backoff_ns`); counts carry no
//! suffix (`tlb_full_misses`, `retries`). Values are typed
//! ([`AttrValue`]) so exporters never guess.
//!
//! # Flight recorder
//!
//! [`FlightRecorder`] is a bounded ring of recent lifecycle events.
//! When a fault, quarantine, or degradation-ladder step strikes, the
//! scheduler dumps the ring onto a dedicated trace track
//! ([`FlightRecorder::dump`]), so every incident ships with the events
//! that led up to it.
//!
//! # JSON
//!
//! [`json`] holds the workspace's one JSON writer: the string escaper
//! and the [`json::JsonObject`] builder behind every machine-readable
//! output above this crate (bench rows, lint reports, scheduler
//! metrics).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod chrome;
mod event;
mod flight;
pub mod json;
mod recorder;

pub use chrome::{to_chrome_json, validate_chrome};
pub use event::{Attr, AttrValue, EventKind, TraceEvent};
pub use flight::FlightRecorder;
pub use recorder::Trace;
