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
    /// The one record of a parallel batch: the per-worker busy times and
    /// item counts of a `genet-par` fan-out. The arrays are indexed by
    /// worker index — a pure function of the batch shape, never of OS
    /// scheduling — so the event is deterministically ordered. Build it with
    /// [`Event::par_stage`], which derives `busy_nanos` and `imbalance`.
    ParStage {
        /// Stage name: `rollout`, `ppo-update`, `eval/<label>`, `gap_eval`,
        /// `ei_score` or `serve_batch`.
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

/// Busy-time imbalance across workers: max over mean of the per-worker busy
/// times. `1.0` for ≤1 worker or an all-idle batch; a perfectly balanced
/// batch reads `1.0` too.
pub(crate) fn imbalance(busy_ns: &[u64]) -> f64 {
    let sum: u64 = busy_ns.iter().sum();
    if busy_ns.len() <= 1 || sum == 0 {
        return 1.0;
    }
    let max = busy_ns.iter().copied().max().unwrap_or(0);
    max as f64 / (sum as f64 / busy_ns.len() as f64)
}

impl Event {
    /// The [`Event::ParStage`] record of one parallel batch, from its
    /// per-worker accounting in worker-index order: `busy_nanos` is the sum
    /// of `busy_ns` and `imbalance` its max over mean (1.0 for ≤1 worker or
    /// an all-idle batch).
    pub fn par_stage(
        stage: impl Into<String>,
        scope: impl Into<String>,
        items: u64,
        workers: u64,
        busy_ns: Vec<u64>,
        worker_items: Vec<u64>,
    ) -> Event {
        Event::ParStage {
            stage: stage.into(),
            scope: scope.into(),
            items,
            workers,
            busy_nanos: busy_ns.iter().sum(),
            imbalance: imbalance(&busy_ns),
            busy_ns,
            worker_items,
        }
    }

    /// The `"type"` discriminator used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::TrainIter { .. } => "train_iter",
            Event::BoTrial { .. } => "bo_trial",
            Event::Promotion { .. } => "promotion",
            Event::ParStage { .. } => "par_stage",
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
            Event::CacheHit { tag } | Event::CacheMiss { tag } => {
                w.str("tag", tag);
            }
        }
        w.finish()
    }

    /// Decodes an event from a parsed JSON object; returns `None` for
    /// non-event lines (spans, counters) or malformed objects. A float
    /// field written as `null` (the encoding of a non-finite value) reads
    /// back as NaN; a missing one makes the object malformed.
    pub fn from_json(v: &JsonValue) -> Option<Event> {
        let kind = v.get("type")?.as_str()?;
        let u = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        let f = |k: &str| match v.get(k)? {
            JsonValue::Null => Some(f64::NAN),
            other => other.as_f64(),
        };
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
        roundtrip(Event::par_stage(
            "rollout",
            "train/initial",
            20,
            4,
            vec![30, 20, 25, 25],
            vec![5, 5, 5, 5],
        ));
        roundtrip(Event::par_stage("eval/policy", "", 0, 0, vec![], vec![]));
        roundtrip(Event::CacheHit {
            tag: "lb_genet_it210_s42".into(),
        });
        roundtrip(Event::CacheMiss {
            tag: "weird \"tag\"\\with escapes".into(),
        });
    }

    #[test]
    fn par_stage_sums_busy_and_derives_imbalance() {
        let ev = Event::par_stage("gap_eval", "", 9, 3, vec![30, 10, 20], vec![3, 3, 3]);
        let Event::ParStage {
            stage,
            scope,
            items,
            workers,
            busy_nanos,
            busy_ns,
            worker_items,
            imbalance,
        } = ev
        else {
            unreachable!()
        };
        assert_eq!((stage.as_str(), scope.as_str()), ("gap_eval", ""));
        assert_eq!((items, workers), (9, 3));
        assert_eq!(busy_nanos, 60);
        assert_eq!(busy_ns, vec![30, 10, 20]);
        assert_eq!(worker_items, vec![3, 3, 3]);
        // max 30 / mean 20.
        assert!((imbalance - 1.5).abs() < 1e-12);
    }

    #[test]
    fn imbalance_edge_cases() {
        // No workers (an untimed batch), one worker, all-idle and balanced
        // workers read 1.0; otherwise max over mean.
        let cases: [(&[u64], f64); 6] = [
            (&[], 1.0),
            (&[40], 1.0),
            (&[0, 0], 1.0),
            (&[25, 25, 25, 25], 1.0),
            (&[10, 20, 30, 40], 1.6),
            (&[0, 8, 0, 0], 4.0),
        ];
        for (busy, want) in cases {
            assert!((imbalance(busy) - want).abs() < 1e-12, "{busy:?}");
            let ev = Event::par_stage("s", "", 1, busy.len() as u64, busy.to_vec(), vec![]);
            let Event::ParStage {
                busy_nanos,
                imbalance: derived,
                ..
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(busy_nanos, busy.iter().sum::<u64>(), "{busy:?}");
            assert!((derived - want).abs() < 1e-12, "{busy:?}");
        }
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
    fn non_finite_floats_decode_as_nan() {
        // A NaN is written as `null`, read back as NaN, and re-encodes to
        // the same line; every other field survives unchanged.
        let trial = Event::BoTrial {
            round: 1,
            trial: 3,
            config: vec![0.5],
            objective: f64::NAN,
            ei: Some(0.25),
        };
        let iter = Event::TrainIter {
            scope: "train/round1".into(),
            iter: 2,
            mean_reward: f64::NAN,
            episodes: 10,
            env_steps: 400,
            policy_loss: 0.1,
            value_loss: 0.2,
            entropy: 0.3,
            approx_kl: 0.0,
        };
        for ev in [trial, iter] {
            let line = ev.to_json(None);
            let parsed = parse(&line).expect("valid json");
            let back = Event::from_json(&parsed).expect("decodable event");
            let nan = match &back {
                Event::BoTrial { objective, .. } => *objective,
                Event::TrainIter { mean_reward, .. } => *mean_reward,
                other => panic!("decoded {other:?}"),
            };
            assert!(nan.is_nan(), "line was: {line}");
            assert_eq!(back.to_json(None), line);
        }
    }

    #[test]
    fn missing_float_field_is_malformed() {
        let parsed = parse(r#"{"type":"promotion","round":1,"config":[2.0]}"#).expect("valid json");
        assert!(Event::from_json(&parsed).is_none());
    }

    #[test]
    fn unknown_type_is_none() {
        let parsed = parse(r#"{"type":"span","path":"train","nanos":5}"#).unwrap();
        assert!(Event::from_json(&parsed).is_none());
    }
}
