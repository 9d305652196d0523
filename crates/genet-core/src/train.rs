//! Traditional RL training — Algorithm 1 of the paper.
//!
//! Per iteration: sample `K` configurations from the training distribution,
//! instantiate `N` random environments per configuration, roll out the
//! current policy on all of them, and apply one PPO update. This is
//! "uniform domain randomization" when the distribution is a uniform box
//! (the RL1/RL2/RL3 baselines) and becomes curriculum training when the
//! distribution is a `CurriculumDist` that Genet keeps re-weighting.

use crate::evaluate::par_map_profiled;
use genet_env::{CurriculumDist, EnvConfig, ParamSpace, Scenario};
use genet_math::{derive_seed, derive_seed3};
use genet_rl::{PpoAgent, RolloutBuffer, UpdateStats};
use genet_telemetry::{counters, Collector, Event};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where training configurations come from.
pub trait ConfigSource: Sync {
    /// Samples one training configuration.
    fn sample_config(&self, rng: &mut StdRng) -> EnvConfig;
}

/// Uniform sampling over a parameter space (the traditional baselines).
#[derive(Debug, Clone)]
pub struct UniformSource(pub ParamSpace);

impl ConfigSource for UniformSource {
    fn sample_config(&self, rng: &mut StdRng) -> EnvConfig {
        self.0.sample(rng)
    }
}

impl ConfigSource for CurriculumDist {
    fn sample_config(&self, rng: &mut StdRng) -> EnvConfig {
        self.sample(rng)
    }
}

/// A fixed list of configurations, sampled uniformly (trace-set training).
#[derive(Debug, Clone)]
pub struct FixedSetSource(pub Vec<EnvConfig>);

impl ConfigSource for FixedSetSource {
    fn sample_config(&self, rng: &mut StdRng) -> EnvConfig {
        assert!(!self.0.is_empty(), "empty config set");
        self.0[rng.random_range(0..self.0.len())].clone()
    }
}

/// Mixture of two sources: `a` with probability `p_a`, else `b` —
/// the real-trace/synthetic mixing of Figure 12.
pub struct MixtureSource<A: ConfigSource, B: ConfigSource> {
    /// First source.
    pub a: A,
    /// Second source.
    pub b: B,
    /// Probability of drawing from `a`.
    pub p_a: f64,
}

impl<A: ConfigSource, B: ConfigSource> ConfigSource for MixtureSource<A, B> {
    fn sample_config(&self, rng: &mut StdRng) -> EnvConfig {
        if rng.random::<f64>() < self.p_a {
            self.a.sample_config(rng)
        } else {
            self.b.sample_config(rng)
        }
    }
}

/// Hyperparameters of Algorithm 1.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// `K`: configurations sampled per iteration.
    pub configs_per_iter: usize,
    /// `N`: environments instantiated per configuration.
    pub envs_per_config: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            configs_per_iter: 10,
            envs_per_config: 2,
        }
    }
}

/// Reward trace of a training run: `(iteration, mean episode reward)` plus
/// the per-iteration PPO diagnostics the update step reports.
#[derive(Debug, Clone, Default)]
pub struct TrainLog {
    /// Mean per-step episode reward of each iteration's rollouts.
    pub iter_rewards: Vec<f64>,
    /// Per-iteration PPO update diagnostics (entropy, approx-KL,
    /// policy/value loss), parallel to `iter_rewards`.
    pub update_stats: Vec<UpdateStats>,
}

impl TrainLog {
    /// Appends another log (for multi-phase runs).
    pub fn extend(&mut self, other: &TrainLog) {
        self.iter_rewards.extend_from_slice(&other.iter_rewards);
        self.update_stats.extend_from_slice(&other.update_stats);
    }

    /// Mean update diagnostics over iterations `[from, to)` — the figure
    /// binaries aggregate per curriculum phase. An empty or out-of-range
    /// window yields NaN fields.
    pub fn mean_stats(&self, from: usize, to: usize) -> UpdateStats {
        let to = to.min(self.update_stats.len());
        if from >= to {
            return UpdateStats {
                policy_loss: f32::NAN,
                value_loss: f32::NAN,
                entropy: f32::NAN,
                approx_kl: f32::NAN,
            };
        }
        let window = &self.update_stats[from..to];
        let inv = 1.0 / window.len() as f32;
        let mut acc = UpdateStats::default();
        for s in window {
            acc.policy_loss += s.policy_loss * inv;
            acc.value_loss += s.value_loss * inv;
            acc.entropy += s.entropy * inv;
            acc.approx_kl += s.approx_kl * inv;
        }
        acc
    }
}

/// Wraps an environment, dividing rewards by a constant — keeps PPO's value
/// targets O(1) across scenarios with wildly different reward units (see
/// `Scenario::reward_scale`).
struct ScaledEnv {
    inner: Box<dyn genet_env::Env>,
    inv_scale: f64,
}

impl genet_env::Env for ScaledEnv {
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }
    fn action_count(&self) -> usize {
        self.inner.action_count()
    }
    fn observe(&self, out: &mut [f32]) {
        self.inner.observe(out)
    }
    fn step(&mut self, action: usize) -> genet_env::StepOutcome {
        let out = self.inner.step(action);
        genet_env::StepOutcome {
            reward: out.reward * self.inv_scale,
            done: out.done,
        }
    }
}

/// Runs Algorithm 1: `iterations` PPO updates of `agent` on environments
/// drawn from `source`. Returns the per-iteration mean rollout reward (in
/// the scenario's *natural* units). Telemetry-free convenience wrapper
/// around [`train_rl_with`].
pub fn train_rl(
    agent: &mut PpoAgent,
    scenario: &dyn Scenario,
    source: &dyn ConfigSource,
    cfg: TrainConfig,
    iterations: usize,
    seed: u64,
) -> TrainLog {
    train_rl_with(
        agent,
        scenario,
        source,
        cfg,
        iterations,
        seed,
        genet_telemetry::noop(),
        "train",
    )
}

/// Stream label separating the rollout engine's seed tree from the
/// iteration RNG stream (`0x7124`).
const ROLLOUT_STREAM: u64 = 0x9011;
/// Episode-local stream label for environment instantiation.
const EP_ENV_STREAM: u64 = 0xE17;
/// Episode-local stream label for action sampling.
const EP_ACTION_STREAM: u64 = 0xAC7;

/// [`train_rl`] with an attached telemetry collector.
///
/// Emits three events per iteration: one [`Event::TrainIter`] (reward plus
/// the full PPO `UpdateStats`) and one [`Event::ParStage`] each for the
/// `rollout` and `ppo-update` stages (items, worker count, per-worker busy
/// time and item counts in worker-index order, load imbalance); plus
/// wall-clock spans `{scope}/rollout` and `{scope}/ppo-update` and the
/// episode/env-step/gradient-update/update-sample counters.
/// `scope` names the phase in span paths and events (`train/initial`,
/// `train/sequencing/round-3`, …).
///
/// # Parallel rollout engine
///
/// Each iteration pre-samples its `K` configurations from the iteration RNG,
/// then collects the `K × N` episodes as an embarrassingly parallel,
/// order-independent map (fanned out via [`par_map_profiled`], worker count
/// from [`crate::evaluate::worker_count`]): episode `e` of iteration `i`
/// derives its own seed `derive_seed3(rollout_seed, i, e)` from which its
/// environment seed and its private action-sampling RNG are split, and the
/// finished [`genet_rl::EpisodeBuffer`]s are concatenated in episode-index
/// order before the PPO update. No RNG is shared across episodes, so the
/// concatenated batch — and therefore the updated weights — are
/// bit-identical for any thread count or scheduling order (see
/// `tests/thread_invariance.rs` and DESIGN.md §10).
///
/// Telemetry is strictly observational: the collector is never consulted
/// for control flow and no timing feeds any seeded path, so results are
/// bit-identical to [`train_rl`] (see the `telemetry_transparency` test).
#[allow(clippy::too_many_arguments)]
pub fn train_rl_with(
    agent: &mut PpoAgent,
    scenario: &dyn Scenario,
    source: &dyn ConfigSource,
    cfg: TrainConfig,
    iterations: usize,
    seed: u64,
    collector: &dyn Collector,
    scope: &str,
) -> TrainLog {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7124));
    let rollout_seed = derive_seed(seed, ROLLOUT_STREAM);
    let mut buffer = RolloutBuffer::new();
    let mut log = TrainLog::default();
    let scale = scenario.reward_scale().max(1e-9);
    let inv_scale = 1.0 / scale;
    let episodes = cfg.configs_per_iter * cfg.envs_per_config;
    for iter in 0..iterations {
        // Pre-sample all K configurations for the iteration from the
        // iteration RNG; episode workers then need no shared mutable state.
        let configs: Vec<EnvConfig> = (0..cfg.configs_per_iter)
            .map(|_| source.sample_config(&mut rng))
            .collect();
        let (batch, profile) = {
            let _rollout = collector.span(format!("{scope}/rollout"));
            let policy = agent.frozen();
            par_map_profiled(
                episodes,
                |e| {
                    let config = &configs[e / cfg.envs_per_config];
                    let ep_seed = derive_seed3(rollout_seed, iter as u64, e as u64);
                    let mut env = ScaledEnv {
                        inner: scenario.make_env(config, derive_seed(ep_seed, EP_ENV_STREAM)),
                        inv_scale,
                    };
                    let mut ep_rng = StdRng::seed_from_u64(derive_seed(ep_seed, EP_ACTION_STREAM));
                    policy.rollout_episode(&mut env, &mut ep_rng)
                },
                collector.enabled(),
            )
        };
        let mut iter_reward = 0.0;
        for episode in batch {
            iter_reward += scale * episode.mean_step_reward();
            buffer.absorb(episode);
        }
        let env_steps = buffer.len();
        let (stats, update_profile) = {
            let _update = collector.span(format!("{scope}/ppo-update"));
            agent.update_profiled(&mut buffer, &mut rng, collector.enabled())
        };
        let mean_reward = iter_reward / episodes as f64;
        if collector.enabled() {
            collector.counter_add(counters::EPISODES, episodes as u64);
            collector.counter_add(counters::ENV_STEPS, env_steps as u64);
            collector.counter_add(counters::GRAD_UPDATES, 1);
            collector.counter_add(counters::UPDATE_SAMPLES, update_profile.samples);
            collector.record(&Event::par_stage(
                "rollout",
                scope,
                episodes as u64,
                profile.workers as u64,
                profile.worker_busy,
                profile.worker_items,
            ));
            let stage = update_profile.stage;
            collector.record(&Event::par_stage(
                "ppo-update",
                scope,
                update_profile.samples,
                stage.workers as u64,
                stage.worker_busy,
                stage.worker_items,
            ));
            collector.record(&Event::TrainIter {
                scope: scope.to_string(),
                iter: iter as u64,
                mean_reward,
                episodes: episodes as u64,
                env_steps: env_steps as u64,
                policy_loss: stats.policy_loss as f64,
                value_loss: stats.value_loss as f64,
                entropy: stats.entropy as f64,
                approx_kl: stats.approx_kl as f64,
            });
        }
        log.iter_rewards.push(mean_reward);
        log.update_stats.push(stats);
    }
    log
}

/// Builds a PPO agent with the scenario's observation/action shape and the
/// per-scenario hyperparameter tweaks that our convergence probes settled
/// on (ABR's rebuffering cliff needs extra exploration entropy to escape
/// the always-lowest-bitrate local optimum; CC and LB train well on the
/// defaults).
pub fn make_agent(scenario: &dyn Scenario, seed: u64) -> PpoAgent {
    let mut cfg = genet_rl::PpoConfig::default();
    if scenario.name() == "abr" {
        // ABR episodes are short (tens of chunks) and the rebuffering risk
        // of a bitrate choice lands many chunks later as the buffer drains:
        // near-undiscounted returns credit it properly.
        cfg.entropy_coef = 0.03;
        cfg.gamma = 0.999;
        cfg.lambda = 0.97;
    }
    PpoAgent::new(scenario.obs_dim(), scenario.action_count(), cfg, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_env::RangeLevel;
    use genet_lb::LbScenario;

    #[test]
    fn training_improves_lb_policy() {
        use crate::evaluate::{eval_policy_many, test_configs};
        use genet_rl::PolicyMode;
        let s = LbScenario;
        let space = s.space(RangeLevel::Rl1);
        let test = test_configs(&space, 20, 999);
        let mut agent = make_agent(&s, 0);
        let before = genet_math::mean(&eval_policy_many(
            &s,
            &agent.policy(PolicyMode::Greedy),
            &test,
            5,
        ));
        let src = UniformSource(space);
        let log = train_rl(&mut agent, &s, &src, TrainConfig::default(), 40, 0);
        assert_eq!(log.iter_rewards.len(), 40);
        let after = genet_math::mean(&eval_policy_many(
            &s,
            &agent.policy(PolicyMode::Greedy),
            &test,
            5,
        ));
        // Either the policy improved, or its untrained initialization was
        // already near-optimal (possible but rare); require real progress
        // whenever there was meaningful room.
        assert!(
            after > before || before > -1.2,
            "LB training should reduce delays: before {before}, after {after}"
        );
    }

    #[test]
    fn fixed_set_source_only_yields_members() {
        let s = LbScenario;
        let configs = crate::evaluate::test_configs(&s.full_space(), 3, 0);
        let src = FixedSetSource(configs.clone());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = src.sample_config(&mut rng);
            assert!(configs.contains(&c));
        }
    }

    #[test]
    fn mixture_source_respects_probability() {
        let s = LbScenario;
        let special = s.full_space().midpoint();
        let src = MixtureSource {
            a: FixedSetSource(vec![special.clone()]),
            b: UniformSource(s.full_space()),
            p_a: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| src.sample_config(&mut rng) == special)
            .count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "{frac}");
    }

    #[test]
    fn mean_stats_empty_window_is_nan() {
        let log = TrainLog::default();
        let s = log.mean_stats(0, 0);
        assert!(s.policy_loss.is_nan());
        assert!(s.value_loss.is_nan());
        assert!(s.entropy.is_nan());
        assert!(s.approx_kl.is_nan());
    }

    #[test]
    fn mean_stats_from_at_or_past_to_is_nan() {
        let mut log = TrainLog::default();
        for i in 0..4 {
            log.iter_rewards.push(i as f64);
            log.update_stats.push(UpdateStats {
                policy_loss: i as f32,
                value_loss: 2.0 * i as f32,
                entropy: 1.0,
                approx_kl: 0.0,
            });
        }
        assert!(log.mean_stats(2, 2).policy_loss.is_nan());
        assert!(log.mean_stats(3, 1).policy_loss.is_nan());
        // `from` past the end entirely.
        assert!(log.mean_stats(9, 12).policy_loss.is_nan());
    }

    #[test]
    fn mean_stats_clamps_out_of_range_to() {
        let mut log = TrainLog::default();
        for i in 0..3 {
            log.update_stats.push(UpdateStats {
                policy_loss: i as f32,
                value_loss: 0.0,
                entropy: 0.0,
                approx_kl: 0.0,
            });
        }
        // to = 100 clamps to len = 3: mean of {0, 1, 2}.
        let s = log.mean_stats(0, 100);
        assert!((s.policy_loss - 1.0).abs() < 1e-6, "{}", s.policy_loss);
        // Window [2, 100) clamps to the single final element.
        let tail = log.mean_stats(2, 100);
        assert!((tail.policy_loss - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_set_source_is_deterministic_under_fixed_seed() {
        let s = LbScenario;
        let configs = crate::evaluate::test_configs(&s.full_space(), 5, 11);
        let src = FixedSetSource(configs);
        let draw = |seed: u64| -> Vec<EnvConfig> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..40).map(|_| src.sample_config(&mut rng)).collect()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4), "distinct seeds should permute draws");
    }

    #[test]
    fn mixture_source_is_deterministic_under_fixed_seed() {
        let s = LbScenario;
        let src = MixtureSource {
            a: FixedSetSource(vec![s.full_space().midpoint()]),
            b: UniformSource(s.full_space()),
            p_a: 0.4,
        };
        let draw = |seed: u64| -> Vec<EnvConfig> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..40).map(|_| src.sample_config(&mut rng)).collect()
        };
        assert_eq!(draw(8), draw(8));
        assert_ne!(draw(8), draw(9));
    }

    #[test]
    fn training_is_deterministic() {
        let s = LbScenario;
        let src = UniformSource(s.space(RangeLevel::Rl1));
        let run = |seed| {
            let mut agent = make_agent(&s, seed);
            train_rl(&mut agent, &s, &src, TrainConfig::default(), 3, seed).iter_rewards
        };
        assert_eq!(run(5), run(5));
    }
}
