//! The [`Collector`] trait, the no-op default, and RAII span timing.

use crate::event::Event;
use std::time::Instant;

/// Well-known monotonic counter names. Free-form names are allowed; these
/// constants keep producers and sinks agreeing on the standard ones.
pub mod counters {
    /// Episodes rolled out during training.
    pub const EPISODES: &str = "episodes";
    /// Environment steps collected during training.
    pub const ENV_STEPS: &str = "env_steps";
    /// PPO gradient updates applied.
    pub const GRAD_UPDATES: &str = "grad_updates";
    /// Environments evaluated by parallel evaluation batches.
    pub const EVAL_ENVS: &str = "eval_envs";
    /// BO trials executed.
    pub const BO_TRIALS: &str = "bo_trials";
    /// Gradient samples processed by the PPO update engine
    /// (buffer length × epochs, summed across update calls).
    pub const UPDATE_SAMPLES: &str = "update_samples";
    /// Gap-eval-plan tasks answered from the deterministic memo cache
    /// (DESIGN.md §15) instead of re-simulating the environment.
    pub const GAP_CACHE_HIT: &str = "gap_cache_hit";
    /// Gap-eval-plan tasks that missed the memo cache (or ran with no cache
    /// attached) and were simulated in the fused `gap_eval` batch.
    pub const GAP_CACHE_MISS: &str = "gap_cache_miss";
    /// Policy decisions served by the serving engine (`genet-serve`,
    /// DESIGN.md §16) — one per session per tick.
    pub const SERVE_DECISIONS: &str = "serve_decisions";
    /// Events dispatched by the event-driven multi-flow CC core
    /// (DESIGN.md §14). Over a batch of episodes, the batch stage's
    /// `busy_nanos / cc_events` is the core's cost per event.
    pub const CC_EVENTS: &str = "cc_events";
}

/// A telemetry sink. Implementations must be cheap and `&self`-threadsafe
/// (they are shared across evaluation workers); all methods are
/// observation-only — nothing a collector does may feed back into training.
pub trait Collector: Send + Sync {
    /// `false` for the no-op collector: producers guard event construction
    /// behind this so disabled telemetry costs a single branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one typed event.
    fn record(&self, event: &Event);

    /// Records a completed wall-clock span. `path` is slash-separated and
    /// hierarchical (e.g. `train/sequencing/round-3/bo/trial-7`); numbered
    /// leaf segments are aggregated as `round-*` in profiles.
    fn span_end(&self, path: &str, nanos: u64);

    /// Adds `delta` to a monotonic counter.
    fn counter_add(&self, name: &'static str, delta: u64);
}

impl dyn Collector + '_ {
    /// Starts a wall-clock span; the span is recorded when the guard drops.
    /// On a disabled collector this neither reads the clock nor allocates.
    pub fn span(&self, path: impl Into<String>) -> SpanGuard<'_> {
        if self.enabled() {
            SpanGuard {
                col: Some(self),
                path: path.into(),
                start: Some(Instant::now()),
            }
        } else {
            SpanGuard {
                col: None,
                path: String::new(),
                start: None,
            }
        }
    }
}

/// RAII guard produced by [`Collector::span`].
pub struct SpanGuard<'a> {
    col: Option<&'a dyn Collector>,
    path: String,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(col), Some(start)) = (self.col, self.start) {
            col.span_end(&self.path, start.elapsed().as_nanos() as u64);
        }
    }
}

/// The default collector: does nothing, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: &Event) {}

    fn span_end(&self, _path: &str, _nanos: u64) {}

    fn counter_add(&self, _name: &'static str, _delta: u64) {}
}

/// The shared no-op instance — pass `telemetry::noop()` wherever a
/// `&dyn Collector` is required and telemetry is not wanted.
pub fn noop() -> &'static dyn Collector {
    static NOOP: NoopCollector = NoopCollector;
    &NOOP
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::MemorySink;

    #[test]
    fn noop_is_disabled_and_silent() {
        let c = noop();
        assert!(!c.enabled());
        c.record(&Event::CacheHit { tag: "x".into() });
        c.counter_add(counters::EPISODES, 5);
        let _guard = c.span("train");
    }

    #[test]
    fn span_guard_records_on_drop() {
        let sink = MemorySink::new();
        {
            let c: &dyn Collector = &sink;
            let _g = c.span("train/rollout");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "train/rollout");
        assert!(
            spans[0].1 >= 1_000_000,
            "span shorter than the sleep: {}",
            spans[0].1
        );
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let sink = MemorySink::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        sink.counter_add(counters::ENV_STEPS, 3);
                    }
                });
            }
        });
        assert_eq!(sink.counter(counters::ENV_STEPS), 8 * 1000 * 3);
        assert_eq!(sink.counter(counters::EPISODES), 0);
    }
}
