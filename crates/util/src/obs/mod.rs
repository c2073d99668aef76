//! Zero-dependency observability substrate: histograms, event tracing,
//! epoch sampling, span profiling, allocation counting, and a small
//! JSON value type.
//!
//! Everything here is allocation-light and crates-io-free so it can be
//! threaded through every simulator hot path. The design contract
//! (enforced by the `obs_overhead` bin in `scue-bench`):
//!
//! * **Counters and histograms are always on** — a [`Histogram::record`]
//!   is a handful of integer ops on a fixed `Copy` array.
//! * **Event tracing is off by default** — a disabled
//!   [`EventTrace::record`] is a single branch, keeping engine overhead
//!   under 3% when tracing is not requested.
//! * **All exports are versioned JSON** — documents carry a
//!   `schema_version` field so downstream tooling can evolve safely.
//!
//! The [`span`] self-profiler and [`alloc`] counting allocator follow
//! the same contract: both are off by default and cost one relaxed
//! atomic load per probe when off, and both aggregate into mergeable,
//! deterministic structures (`SpanProfile::merge` is commutative like
//! `Histogram::merge`, so `scue_util::par` fan-outs fold per-worker
//! profiles in any order).

#[allow(unsafe_code)]
pub mod alloc;
mod hist;
mod json;
mod sampler;
pub mod span;
mod trace;

pub use hist::{Histogram, BUCKETS};
pub use json::Json;
pub use sampler::{EpochSample, EpochSampler};
pub use span::{SpanGuard, SpanProfile, SpanStats};
pub use trace::{EventKind, EventTrace, TraceEvent};
