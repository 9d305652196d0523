//! Human-readable stderr summarizer: per-round one-liners while the run
//! progresses, then an end-of-run span-tree profile and counter totals.

use crate::collector::Collector;
use crate::event::Event;
use crate::spans::{fmt_nanos, SpanTree};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-stage aggregation of [`Event::ParStage`] worker accounting, shared
/// by the stderr utilization table and the `BENCH_<figure>.json` `stages`
/// section. Keyed by stage name; scopes are merged (the span tree already
/// splits time by phase).
#[derive(Debug, Clone, Default)]
pub struct StageAgg {
    /// Items processed across all batches of the stage.
    pub items: u64,
    /// Parallel batches aggregated.
    pub batches: u64,
    /// Max worker count any batch used.
    pub max_workers: u64,
    /// Summed busy time across workers and batches.
    pub busy_nanos: u64,
    /// Per-worker busy time, summed by worker index across batches.
    pub worker_busy: Vec<u64>,
    /// Per-worker items, summed by worker index across batches.
    pub worker_items: Vec<u64>,
}

impl StageAgg {
    /// Folds one `par_stage` event into the aggregate.
    pub fn absorb(&mut self, items: u64, workers: u64, busy_nanos: u64, busy: &[u64], wi: &[u64]) {
        self.items += items;
        self.batches += 1;
        self.max_workers = self.max_workers.max(workers);
        self.busy_nanos += busy_nanos;
        if self.worker_busy.len() < busy.len() {
            self.worker_busy.resize(busy.len(), 0);
        }
        for (acc, v) in self.worker_busy.iter_mut().zip(busy.iter()) {
            *acc += *v;
        }
        if self.worker_items.len() < wi.len() {
            self.worker_items.resize(wi.len(), 0);
        }
        for (acc, v) in self.worker_items.iter_mut().zip(wi.iter()) {
            *acc += *v;
        }
    }

    /// Busy-time imbalance across workers: max/mean (1.0 when ≤1 worker
    /// or all idle).
    pub fn imbalance(&self) -> f64 {
        crate::event::imbalance(&self.worker_busy)
    }

    /// Items per second of summed worker busy time (`None` when no busy
    /// time was recorded).
    pub fn items_per_sec(&self) -> Option<f64> {
        if self.busy_nanos == 0 {
            return None;
        }
        Some(self.items as f64 / (self.busy_nanos as f64 / 1e9))
    }
}

#[derive(Default)]
struct State {
    spans: SpanTree,
    counters: BTreeMap<&'static str, u64>,
    stages: BTreeMap<String, StageAgg>,
    /// Mean rewards of train iterations since the last promotion line.
    rewards_since_round: Vec<f64>,
    /// Last-seen entropy (prints alongside the round line — entropy
    /// collapse is the usual divergence smoking gun).
    last_entropy: Option<f64>,
    bo_trials_since_round: u64,
    finished: bool,
}

/// Collector that narrates the run on stderr.
#[derive(Default)]
pub struct StderrSummary {
    state: Mutex<State>,
}

impl StderrSummary {
    /// A fresh summarizer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prints the end-of-run profile (idempotent; also runs on drop).
    pub fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        if st.finished {
            return;
        }
        st.finished = true;
        if !st.counters.is_empty() {
            let parts: Vec<String> = st
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            eprintln!("[telemetry] counters: {}", parts.join(" "));
        }
        if !st.stages.is_empty() {
            eprintln!("[telemetry] stage utilization (busy time summed across workers):");
            for (stage, agg) in &st.stages {
                let throughput = agg
                    .items_per_sec()
                    .map(|r| format!("{r:.1} items/s"))
                    .unwrap_or_else(|| "- items/s".into());
                eprintln!(
                    "[telemetry]   {stage:<20} items {:>9}  busy {:>9}  workers<={:<3} \
                     imbalance {:.2}  {throughput}",
                    agg.items,
                    fmt_nanos(agg.busy_nanos),
                    agg.max_workers,
                    agg.imbalance(),
                );
            }
        }
        if !st.spans.is_empty() {
            eprintln!("[telemetry] span profile (total/self wall-clock, call counts):");
            for line in st.spans.render().lines() {
                eprintln!("[telemetry]   {line}");
            }
        }
    }
}

impl Drop for StderrSummary {
    fn drop(&mut self) {
        self.finish();
    }
}

fn fmt_config(config: &[f64]) -> String {
    let cells: Vec<String> = config.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", cells.join(", "))
}

impl Collector for StderrSummary {
    fn record(&self, event: &Event) {
        let mut st = self.state.lock().unwrap();
        match event {
            Event::TrainIter {
                mean_reward,
                entropy,
                ..
            } => {
                st.rewards_since_round.push(*mean_reward);
                st.last_entropy = Some(*entropy);
            }
            Event::BoTrial { .. } => st.bo_trials_since_round += 1,
            Event::Promotion {
                round,
                config,
                value,
            } => {
                let reward = if st.rewards_since_round.is_empty() {
                    f64::NAN
                } else {
                    st.rewards_since_round.iter().sum::<f64>() / st.rewards_since_round.len() as f64
                };
                let entropy = st
                    .last_entropy
                    .map(|e| format!("{e:.3}"))
                    .unwrap_or_else(|| "-".into());
                eprintln!(
                    "[telemetry] round {round}: promoted {} crit={value:.4} | \
                     {} bo trials | mean train reward {reward:.4} | entropy {entropy}",
                    fmt_config(config),
                    st.bo_trials_since_round,
                );
                st.rewards_since_round.clear();
                st.bo_trials_since_round = 0;
            }
            // Worker-level stage accounting folds into the end-of-run
            // utilization table.
            Event::ParStage {
                stage,
                items,
                workers,
                busy_nanos,
                busy_ns,
                worker_items,
                ..
            } => {
                st.stages.entry(stage.clone()).or_default().absorb(
                    *items,
                    *workers,
                    *busy_nanos,
                    busy_ns,
                    worker_items,
                );
            }
            Event::CacheHit { tag } => eprintln!("[telemetry] model cache hit: {tag}"),
            Event::CacheMiss { tag } => {
                eprintln!("[telemetry] model cache miss: {tag} (training)")
            }
        }
    }

    fn span_end(&self, path: &str, nanos: u64) {
        self.state.lock().unwrap().spans.add(path, nanos);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        *self.state.lock().unwrap().counters.entry(name).or_insert(0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::counters;

    #[test]
    fn summarizer_accumulates_without_panicking() {
        let s = StderrSummary::new();
        s.record(&Event::TrainIter {
            scope: "train/initial".into(),
            iter: 0,
            mean_reward: -1.0,
            episodes: 4,
            env_steps: 100,
            policy_loss: 0.1,
            value_loss: 0.2,
            entropy: 0.6,
            approx_kl: 0.01,
        });
        s.record(&Event::BoTrial {
            round: 0,
            trial: 0,
            config: vec![1.0],
            objective: 0.5,
            ei: None,
        });
        s.record(&Event::Promotion {
            round: 0,
            config: vec![1.0],
            value: 0.5,
        });
        s.span_end("train/sequencing/round-0", 1000);
        s.counter_add(counters::EPISODES, 4);
        s.finish();
        s.finish(); // idempotent
        let st = s.state.lock().unwrap();
        assert!(
            st.rewards_since_round.is_empty(),
            "promotion must reset the window"
        );
        assert_eq!(st.bo_trials_since_round, 0);
        assert_eq!(st.counters[counters::EPISODES], 4);
        assert!(!st.spans.is_empty());
    }

    #[test]
    fn par_stage_events_aggregate_per_stage() {
        let s = StderrSummary::new();
        for _ in 0..2 {
            s.record(&Event::par_stage(
                "rollout",
                "train/initial",
                10,
                2,
                vec![10, 20],
                vec![5, 5],
            ));
        }
        s.record(&Event::par_stage(
            "ppo-update",
            "train/initial",
            100,
            1,
            vec![7],
            vec![100],
        ));
        let st = s.state.lock().unwrap();
        assert_eq!(st.stages.len(), 2);
        let rollout = &st.stages["rollout"];
        assert_eq!(rollout.items, 20);
        assert_eq!(rollout.batches, 2);
        assert_eq!(rollout.max_workers, 2);
        assert_eq!(rollout.busy_nanos, 60);
        assert_eq!(rollout.worker_busy, vec![20, 40]);
        assert_eq!(rollout.worker_items, vec![10, 10]);
        assert!((rollout.imbalance() - 40.0 / 30.0).abs() < 1e-12);
        let rate = rollout.items_per_sec().unwrap();
        assert!((rate - 20.0 / (60.0 / 1e9)).abs() < 1.0);
        drop(st);
        s.finish(); // prints the utilization table without panicking
    }

    #[test]
    fn stage_agg_edge_cases() {
        let agg = StageAgg::default();
        assert_eq!(agg.imbalance(), 1.0);
        assert!(agg.items_per_sec().is_none());
    }
}
