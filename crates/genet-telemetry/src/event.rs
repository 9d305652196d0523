//! Typed telemetry events and their JSONL encoding.
//!
//! Every variant maps to one JSON object with a `"type"` discriminator; the
//! encoding round-trips through [`Event::to_json`] / [`Event::from_json`]
//! (unknown keys such as the sink-added `t_ms` timestamp are ignored on the
//! way back in, so JSONL files stay forward-compatible).

use crate::json::JsonValue;

/// One structured observation from the training/search stack.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// One Algorithm-1 training iteration: mean rollout reward plus the full
    /// PPO update diagnostics that `PpoAgent::update` reports.
    TrainIter {
        /// Span-style phase scope, e.g. `train/initial` or
        /// `train/sequencing/round-3`.
        scope: String,
        /// Iteration index within the scope.
        iter: u64,
        /// Mean per-step episode reward (scenario's natural units).
        mean_reward: f64,
        /// Episodes rolled out this iteration.
        episodes: u64,
        /// Environment steps collected this iteration.
        env_steps: u64,
        /// Mean clipped-surrogate loss.
        policy_loss: f64,
        /// Mean squared value error.
        value_loss: f64,
        /// Mean policy entropy (nats).
        entropy: f64,
        /// Approximate KL(old ‖ new).
        approx_kl: f64,
    },
    /// One Bayesian-optimization trial of a sequencing round.
    BoTrial {
        /// Sequencing round index.
        round: u64,
        /// Trial index within the round.
        trial: u64,
        /// Proposed environment configuration (raw parameter vector).
        config: Vec<f64>,
        /// Measured selection-criterion value.
        objective: f64,
        /// Expected-improvement value of the proposal (`None` for the
        /// random initial probes).
        ei: Option<f64>,
    },
    /// A configuration promoted into the curriculum distribution.
    Promotion {
        /// Sequencing round index.
        round: u64,
        /// Promoted configuration (raw parameter vector).
        config: Vec<f64>,
        /// Its selection-criterion value.
        value: f64,
    },
    /// One parallel rollout batch: the `K × N` episodes of a single
    /// training iteration, collected by the parallel rollout engine.
    /// Mirrors [`Event::EvalBatch`] so eval and rollout fan-out can be
    /// profiled with the same tooling.
    RolloutBatch {
        /// Span-style phase scope, e.g. `train/initial`.
        scope: String,
        /// Iteration index within the scope.
        iter: u64,
        /// Episodes rolled out in the batch.
        episodes: u64,
        /// Worker threads used.
        workers: u64,
        /// Sum of per-worker busy time, merged deterministically in worker
        /// index order.
        busy_nanos: u64,
    },
    /// One parallel PPO update: all epochs × minibatches of a single
    /// `PpoAgent::update_profiled` call, each minibatch's actor and critic
    /// passes fanned out by the parallel update engine. Mirrors
    /// [`Event::RolloutBatch`].
    UpdateBatch {
        /// Span-style phase scope, e.g. `train/initial`.
        scope: String,
        /// Iteration index within the scope.
        iter: u64,
        /// Gradient samples processed (buffer length × epochs).
        samples: u64,
        /// Most worker threads any minibatch used.
        workers: u64,
        /// Sum of per-worker busy time across all minibatches, merged
        /// deterministically in worker index order.
        busy_nanos: u64,
    },
    /// Worker-level accounting of one parallel engine stage: the per-worker
    /// busy times and item counts of a `par_map_profiled` fan-out (or the
    /// aggregate over the minibatch fan-outs of one PPO update call). The
    /// arrays are indexed by worker index — a pure function of the batch
    /// shape, never of OS scheduling — so the event is deterministically
    /// ordered. Emitted alongside the coarser `*_batch` events; consumers
    /// that only need totals can keep ignoring it.
    ParStage {
        /// Stage name: `rollout`, `ppo-update`, or `eval/<label>`.
        stage: String,
        /// Span-style phase scope (`train/initial`, …; empty when the
        /// stage runs outside a training phase, e.g. evaluation).
        scope: String,
        /// Items processed (episodes / gradient samples / environments).
        items: u64,
        /// Worker threads used (max across constituent batches).
        workers: u64,
        /// Sum of per-worker busy time.
        busy_nanos: u64,
        /// Per-worker busy nanoseconds, worker-index order.
        busy_ns: Vec<u64>,
        /// Per-worker items processed, worker-index order.
        worker_items: Vec<u64>,
        /// Busy-time imbalance: max/mean of `busy_ns` (1.0 when balanced
        /// or ≤1 worker).
        imbalance: f64,
    },
    /// One parallel evaluation batch (`evaluate::par_map`).
    EvalBatch {
        /// Caller-supplied label, e.g. `eval/genet`.
        label: String,
        /// Number of items evaluated.
        n: u64,
        /// Worker threads used.
        workers: u64,
        /// Sum of per-worker busy time, merged deterministically in worker
        /// index order.
        busy_nanos: u64,
    },
    /// A trained-policy cache hit in the bench harness.
    CacheHit {
        /// Cache tag (model file stem).
        tag: String,
    },
    /// A cache miss (training will run).
    CacheMiss {
        /// Cache tag (model file stem).
        tag: String,
    },
}

impl Event {
    /// The `"type"` discriminator used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TrainIter { .. } => "train_iter",
            Event::BoTrial { .. } => "bo_trial",
            Event::Promotion { .. } => "promotion",
            Event::RolloutBatch { .. } => "rollout_batch",
            Event::UpdateBatch { .. } => "update_batch",
            Event::ParStage { .. } => "par_stage",
            Event::EvalBatch { .. } => "eval_batch",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
        }
    }

    /// Encodes the event as one JSON object (no trailing newline).
    /// `t_ms`, when given, is prepended as a wall-clock-relative timestamp.
    pub fn to_json(&self, t_ms: Option<f64>) -> String {
        let mut w = crate::json::ObjWriter::new();
        if let Some(t) = t_ms {
            w.num("t_ms", t);
        }
        w.str("type", self.kind());
        match self {
            Event::TrainIter {
                scope,
                iter,
                mean_reward,
                episodes,
                env_steps,
                policy_loss,
                value_loss,
                entropy,
                approx_kl,
            } => {
                w.str("scope", scope);
                w.uint("iter", *iter);
                w.num("mean_reward", *mean_reward);
                w.uint("episodes", *episodes);
                w.uint("env_steps", *env_steps);
                w.num("policy_loss", *policy_loss);
                w.num("value_loss", *value_loss);
                w.num("entropy", *entropy);
                w.num("approx_kl", *approx_kl);
            }
            Event::BoTrial {
                round,
                trial,
                config,
                objective,
                ei,
            } => {
                w.uint("round", *round);
                w.uint("trial", *trial);
                w.num_array("config", config);
                w.num("objective", *objective);
                match ei {
                    Some(v) => w.num("ei", *v),
                    None => w.null("ei"),
                }
            }
            Event::Promotion {
                round,
                config,
                value,
            } => {
                w.uint("round", *round);
                w.num_array("config", config);
                w.num("value", *value);
            }
            Event::RolloutBatch {
                scope,
                iter,
                episodes,
                workers,
                busy_nanos,
            } => {
                w.str("scope", scope);
                w.uint("iter", *iter);
                w.uint("episodes", *episodes);
                w.uint("workers", *workers);
                w.uint("busy_nanos", *busy_nanos);
            }
            Event::UpdateBatch {
                scope,
                iter,
                samples,
                workers,
                busy_nanos,
            } => {
                w.str("scope", scope);
                w.uint("iter", *iter);
                w.uint("samples", *samples);
                w.uint("workers", *workers);
                w.uint("busy_nanos", *busy_nanos);
            }
            Event::ParStage {
                stage,
                scope,
                items,
                workers,
                busy_nanos,
                busy_ns,
                worker_items,
                imbalance,
            } => {
                w.str("stage", stage);
                w.str("scope", scope);
                w.uint("items", *items);
                w.uint("workers", *workers);
                w.uint("busy_nanos", *busy_nanos);
                w.uint_array("busy_ns", busy_ns);
                w.uint_array("worker_items", worker_items);
                w.num("imbalance", *imbalance);
            }
            Event::EvalBatch {
                label,
                n,
                workers,
                busy_nanos,
            } => {
                w.str("label", label);
                w.uint("n", *n);
                w.uint("workers", *workers);
                w.uint("busy_nanos", *busy_nanos);
            }
            Event::CacheHit { tag } | Event::CacheMiss { tag } => {
                w.str("tag", tag);
            }
        }
        w.finish()
    }

    /// Decodes an event from a parsed JSON object; returns `None` for
    /// non-event lines (spans, counters) or malformed objects.
    pub fn from_json(v: &JsonValue) -> Option<Event> {
        let kind = v.get("type")?.as_str()?;
        let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        let f = |k: &str| v.get(k).and_then(JsonValue::as_f64);
        let s = |k: &str| v.get(k).and_then(JsonValue::as_str).map(str::to_string);
        match kind {
            "train_iter" => Some(Event::TrainIter {
                scope: s("scope")?,
                iter: u("iter")?,
                mean_reward: f("mean_reward")?,
                episodes: u("episodes")?,
                env_steps: u("env_steps")?,
                policy_loss: f("policy_loss")?,
                value_loss: f("value_loss")?,
                entropy: f("entropy")?,
                approx_kl: f("approx_kl")?,
            }),
            "bo_trial" => Some(Event::BoTrial {
                round: u("round")?,
                trial: u("trial")?,
                config: v.get("config")?.as_f64_array()?,
                objective: f("objective")?,
                ei: match v.get("ei") {
                    Some(JsonValue::Null) | None => None,
                    Some(other) => Some(other.as_f64()?),
                },
            }),
            "promotion" => Some(Event::Promotion {
                round: u("round")?,
                config: v.get("config")?.as_f64_array()?,
                value: f("value")?,
            }),
            "rollout_batch" => Some(Event::RolloutBatch {
                scope: s("scope")?,
                iter: u("iter")?,
                episodes: u("episodes")?,
                workers: u("workers")?,
                busy_nanos: u("busy_nanos")?,
            }),
            "update_batch" => Some(Event::UpdateBatch {
                scope: s("scope")?,
                iter: u("iter")?,
                samples: u("samples")?,
                workers: u("workers")?,
                busy_nanos: u("busy_nanos")?,
            }),
            "par_stage" => Some(Event::ParStage {
                stage: s("stage")?,
                scope: s("scope")?,
                items: u("items")?,
                workers: u("workers")?,
                busy_nanos: u("busy_nanos")?,
                busy_ns: v.get("busy_ns")?.as_u64_array()?,
                worker_items: v.get("worker_items")?.as_u64_array()?,
                imbalance: f("imbalance")?,
            }),
            "eval_batch" => Some(Event::EvalBatch {
                label: s("label")?,
                n: u("n")?,
                workers: u("workers")?,
                busy_nanos: u("busy_nanos")?,
            }),
            "cache_hit" => Some(Event::CacheHit { tag: s("tag")? }),
            "cache_miss" => Some(Event::CacheMiss { tag: s("tag")? }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn roundtrip(ev: Event) {
        let line = ev.to_json(Some(12.5));
        let parsed = parse(&line).expect("valid json");
        let back = Event::from_json(&parsed).expect("decodable event");
        assert_eq!(ev, back, "line was: {line}");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Event::TrainIter {
            scope: "train/initial".into(),
            iter: 7,
            mean_reward: -1.25,
            episodes: 20,
            env_steps: 812,
            policy_loss: 0.03,
            value_loss: 1.5,
            entropy: 0.69,
            approx_kl: 0.002,
        });
        roundtrip(Event::BoTrial {
            round: 2,
            trial: 5,
            config: vec![1.0, -2.5, 0.125],
            objective: 0.875,
            ei: Some(0.0625),
        });
        roundtrip(Event::BoTrial {
            round: 0,
            trial: 0,
            config: vec![],
            objective: -3.0,
            ei: None,
        });
        roundtrip(Event::Promotion {
            round: 8,
            config: vec![4.0],
            value: 0.5,
        });
        roundtrip(Event::RolloutBatch {
            scope: "train/initial".into(),
            iter: 3,
            episodes: 20,
            workers: 8,
            busy_nanos: 9_876_543,
        });
        roundtrip(Event::UpdateBatch {
            scope: "train/initial".into(),
            iter: 3,
            samples: 4_872,
            workers: 8,
            busy_nanos: 1_234_567,
        });
        roundtrip(Event::ParStage {
            stage: "rollout".into(),
            scope: "train/initial".into(),
            items: 20,
            workers: 4,
            busy_nanos: 100,
            busy_ns: vec![30, 20, 25, 25],
            worker_items: vec![5, 5, 5, 5],
            imbalance: 1.2,
        });
        roundtrip(Event::ParStage {
            stage: "eval/policy".into(),
            scope: String::new(),
            items: 0,
            workers: 0,
            busy_nanos: 0,
            busy_ns: vec![],
            worker_items: vec![],
            imbalance: 1.0,
        });
        roundtrip(Event::EvalBatch {
            label: "eval/genet".into(),
            n: 200,
            workers: 8,
            busy_nanos: 123_456_789,
        });
        roundtrip(Event::CacheHit {
            tag: "lb_genet_it210_s42".into(),
        });
        roundtrip(Event::CacheMiss {
            tag: "weird \"tag\"\\with escapes".into(),
        });
    }

    #[test]
    fn kind_matches_discriminator() {
        let ev = Event::Promotion {
            round: 0,
            config: vec![],
            value: 0.0,
        };
        let parsed = parse(&ev.to_json(None)).unwrap();
        assert_eq!(parsed.get("type").unwrap().as_str().unwrap(), ev.kind());
    }

    #[test]
    fn unknown_type_is_none() {
        let parsed = parse(r#"{"type":"span","path":"train","nanos":5}"#).unwrap();
        assert!(Event::from_json(&parsed).is_none());
    }
}
