//! # genet-telemetry
//!
//! Zero-dependency structured observability for the Genet training stack.
//!
//! The training loop (Algorithm 2) interleaves PPO updates, Bayesian-
//! optimization searches and curriculum promotions; this crate makes all of
//! it observable without perturbing it. Three pieces:
//!
//! * [`Collector`] — the sink-facing trait. Producers emit typed [`Event`]s
//!   (train iterations with full PPO diagnostics, BO trials with acquisition
//!   values, curriculum promotions, one `par_stage` record per parallel
//!   batch, model-cache hits/misses), hierarchical wall-clock spans
//!   (slash-separated paths such as `train/sequencing/round-3/bo/trial-7`)
//!   and monotonic counters (episodes, environment steps, gradient
//!   updates).
//! * Sinks — [`JsonlSink`] (one JSON object per line, machine-diffable),
//!   [`StderrSummary`] (per-round one-liners plus an end-of-run span-tree
//!   profile with total/self time and call counts), [`MemorySink`] (tests),
//!   and [`Tee`] (fan-out). [`NoopCollector`] is the default: with it
//!   attached, every instrumentation site costs one `enabled()` branch.
//! * [`SpanGuard`] — RAII span timing via [`Collector::span`] (an inherent
//!   method on `dyn Collector`).
//!
//! Telemetry is strictly out-of-band: collectors only *observe*. No timing
//! value ever feeds back into a seeded code path, so a run with sinks
//! attached produces bit-identical rewards and promotions to a run without
//! (enforced by `genet-core`'s `telemetry_transparency` integration test).

#![forbid(unsafe_code)]

pub mod collector;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod paths;
pub mod sinks;
pub mod spans;
pub mod summary;

pub use collector::{counters, noop, Collector, NoopCollector, SpanGuard};
pub use event::Event;
pub use json::JsonValue;
pub use jsonl::JsonlSink;
pub use paths::{
    bench_json_path, bench_out_dir, figure_tsv_path, perf_history_path, telemetry_dir,
};
pub use sinks::{MemorySink, Tee};
pub use spans::{SpanNode, SpanTree};
pub use summary::{StageAgg, StderrSummary};
