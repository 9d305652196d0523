//! PPO-clip actor-critic agent.
//!
//! Two small MLPs (actor → action logits, critic → state value), trained on
//! rollouts with GAE-λ advantages and the clipped surrogate objective, with
//! entropy regularization. This is the `RL optimizer (A3C, PPO, …)` box of
//! the paper's Figure 8 — the component Genet treats as a black box behind
//! the `Train`/`Test` API.

use crate::adam::Adam;
use crate::buffer::{EpisodeBuffer, RolloutBuffer, StepMeta};
use crate::mlp::{Mlp, MlpBatchScratch, MlpScratch};
use crate::softmax;
use genet_env::{Env, Policy, PolicyScratch};
use genet_math::derive_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{BufRead, Write};
use std::path::Path;

/// PPO hyperparameters.
///
/// Defaults are tuned for the small decision problems of the three Genet use
/// cases and are held fixed across all experiments (the paper likewise keeps
/// "training hyperparameters … unchanged in all the experiments", §4.1).
#[derive(Debug, Clone)]
pub struct PpoConfig {
    /// Hidden layer widths shared by actor and critic.
    pub hidden: Vec<usize>,
    /// Actor learning rate.
    pub actor_lr: f32,
    /// Critic learning rate.
    pub critic_lr: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE λ.
    pub lambda: f32,
    /// PPO clip range ε.
    pub clip: f32,
    /// Optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch: usize,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
}

impl Default for PpoConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32, 16],
            actor_lr: 1e-3,
            critic_lr: 2.5e-3,
            gamma: 0.95,
            lambda: 0.95,
            clip: 0.2,
            epochs: 6,
            minibatch: 256,
            entropy_coef: 0.015,
        }
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Mean clipped surrogate loss (lower is better for the optimizer).
    pub policy_loss: f32,
    /// Mean squared value error.
    pub value_loss: f32,
    /// Mean policy entropy (nats).
    pub entropy: f32,
    /// Approximate KL(old ‖ new) over the batch.
    pub approx_kl: f32,
}

/// Worker accounting of one PPO update (all epochs), for the `ppo-update`
/// `par_stage` telemetry event. Observation-only: none of these values feed
/// back into training.
#[derive(Debug, Clone, Default)]
pub struct UpdateProfile {
    /// Gradient samples processed (`buffer len × epochs`).
    pub samples: u64,
    /// Per-worker accounting summed by worker index across all minibatch
    /// fan-outs of the update (empty, with `workers` 1, unless timing was
    /// requested). `workers` is the most any minibatch fanned out over: at
    /// least 1, at most 2 (one per network). An item is one network's pass
    /// over one sample, so the items sum to `2 × samples`. Worker indices
    /// are a pure function of the batch shape, so the aggregation order is
    /// deterministic.
    pub stage: genet_par::BatchProfile,
}

/// Which network a [`NetPass`] trains.
#[derive(Debug, Clone, Copy)]
enum Net {
    Actor,
    Critic,
}

/// One network's half of every minibatch of an update, with buffers that
/// live for the whole update: batched forward/backward scratch, the
/// `dLoss/dOutput` rows, and the minibatch gradient. The update fans each
/// minibatch out over one actor pass and one critic pass (DESIGN.md §11).
struct NetPass {
    net: Net,
    scratch: MlpBatchScratch,
    gouts: Vec<f32>,
    /// The minibatch gradient, summed in ascending sample order.
    grads: Vec<f32>,
    /// Softmax, log-probability and logit-gradient rows of one sample
    /// (actor only).
    probs: Vec<f32>,
    log_probs: Vec<f32>,
    grad_logits: Vec<f32>,
    g_ent: Vec<f32>,
}

impl NetPass {
    fn new(net: Net, mlp: &Mlp) -> Self {
        Self {
            net,
            scratch: MlpBatchScratch::default(),
            gouts: Vec::new(),
            grads: vec![0.0; mlp.param_count()],
            probs: Vec::new(),
            log_probs: vec![0.0; mlp.output_dim()],
            grad_logits: vec![0.0; mlp.output_dim()],
            g_ent: vec![0.0; mlp.output_dim()],
        }
    }

    /// The actor's pass over minibatch `idxs` (observations staged in `xs`):
    /// batched forward, the PPO-clip + entropy `dLoss/dlogits` rows, and a
    /// batched backward into `self.grads`. Returns the minibatch sums of
    /// −surrogate, entropy and KL, each added in sample order
    /// (`value_loss` stays 0).
    fn actor(
        &mut self,
        actor: &Mlp,
        cfg: &PpoConfig,
        buffer: &RolloutBuffer,
        idxs: &[usize],
        xs: &[f32],
        inv: f32,
    ) -> UpdateStats {
        let m = idxs.len();
        let actions = actor.output_dim();
        self.gouts.resize(m * actions, 0.0);
        let mut sums = UpdateStats::default();
        let logits_all = actor.forward_batch(xs, m, &mut self.scratch);
        for (s, &i) in idxs.iter().enumerate() {
            let t = &buffer.meta()[i];
            let adv = buffer.advantages()[i];
            let logits = &logits_all[s * actions..(s + 1) * actions];
            let probs = softmax::softmax_into(logits, &mut self.probs);
            let logp = softmax::log_prob(probs, t.action);
            let ratio = (logp - t.log_prob).exp();
            let unclipped = ratio * adv;
            let clipped = ratio.clamp(1.0 - cfg.clip, 1.0 + cfg.clip) * adv;
            let surrogate = unclipped.min(clipped);
            // Gradient flows only when the unclipped branch is active (the
            // standard PPO subgradient).
            let pass_through = if adv >= 0.0 {
                ratio <= 1.0 + cfg.clip
            } else {
                ratio >= 1.0 - cfg.clip
            };
            let coef = if pass_through { ratio * adv } else { 0.0 };
            softmax::grad_log_prob(probs, t.action, &mut self.grad_logits);
            let entropy = softmax::entropy_and_grad(probs, &mut self.log_probs, &mut self.g_ent);
            // Loss = −surrogate − c_ent·H; dLoss/dlogits for this sample.
            for j in 0..actions {
                self.gouts[s * actions + j] =
                    (-coef * self.grad_logits[j] - cfg.entropy_coef * self.g_ent[j]) * inv;
            }
            sums.policy_loss -= surrogate;
            sums.entropy += entropy;
            sums.approx_kl += t.log_prob - logp;
        }
        self.grads.iter_mut().for_each(|g| *g = 0.0);
        actor.backward_batch_accum(&self.gouts, m, &mut self.scratch, &mut self.grads);
        sums
    }

    /// The critic's pass over the same minibatch: batched forward, the
    /// value-error rows, and a batched backward into `self.grads`. Returns
    /// the minibatch sum of ½·verr², added in sample order (only
    /// `value_loss` is set).
    fn critic(
        &mut self,
        critic: &Mlp,
        buffer: &RolloutBuffer,
        idxs: &[usize],
        xs: &[f32],
        inv: f32,
    ) -> UpdateStats {
        let m = idxs.len();
        self.gouts.resize(m, 0.0);
        let mut sums = UpdateStats::default();
        let values = critic.forward_batch(xs, m, &mut self.scratch);
        for (s, &i) in idxs.iter().enumerate() {
            let verr = values[s] - buffer.returns()[i];
            self.gouts[s] = verr * inv;
            sums.value_loss += 0.5 * verr * verr;
        }
        self.grads.iter_mut().for_each(|g| *g = 0.0);
        critic.backward_batch_accum(&self.gouts, m, &mut self.scratch, &mut self.grads);
        sums
    }
}

/// The trainable PPO agent.
#[derive(Debug, Clone)]
pub struct PpoAgent {
    actor: Mlp,
    critic: Mlp,
    opt_actor: Adam,
    opt_critic: Adam,
    cfg: PpoConfig,
}

impl PpoAgent {
    /// Creates a fresh agent for `obs_dim` observations and `actions`
    /// discrete actions.
    pub fn new(obs_dim: usize, actions: usize, cfg: PpoConfig, seed: u64) -> Self {
        let mut actor_sizes = vec![obs_dim];
        actor_sizes.extend_from_slice(&cfg.hidden);
        actor_sizes.push(actions);
        let mut critic_sizes = vec![obs_dim];
        critic_sizes.extend_from_slice(&cfg.hidden);
        critic_sizes.push(1);
        let actor = Mlp::new(&actor_sizes, derive_seed(seed, 1));
        let critic = Mlp::new(&critic_sizes, derive_seed(seed, 2));
        let opt_actor = Adam::new(actor.param_count(), cfg.actor_lr);
        let opt_critic = Adam::new(critic.param_count(), cfg.critic_lr);
        Self {
            actor,
            critic,
            opt_actor,
            opt_critic,
            cfg,
        }
    }

    /// Observation dimensionality.
    pub fn obs_dim(&self) -> usize {
        self.actor.input_dim()
    }

    /// Number of discrete actions.
    pub fn action_count(&self) -> usize {
        self.actor.output_dim()
    }

    /// Hyperparameters.
    pub fn config(&self) -> &PpoConfig {
        &self.cfg
    }

    /// A `Sync` read-only snapshot of the behaviour policy (actor + critic
    /// by reference) that rollout workers can drive without `&mut` access
    /// to the agent — the handle the parallel rollout engine fans out.
    pub fn frozen(&self) -> FrozenPolicy<'_> {
        FrozenPolicy {
            actor: &self.actor,
            critic: &self.critic,
        }
    }

    /// Runs one full episode on `env`, pushing transitions into `buffer`.
    /// Returns the mean per-step reward of the episode.
    pub fn collect_episode(
        &mut self,
        env: &mut dyn Env,
        buffer: &mut RolloutBuffer,
        rng: &mut StdRng,
    ) -> f64 {
        let episode = self.frozen().rollout_episode(env, rng);
        let mean = episode.mean_step_reward();
        buffer.absorb(episode);
        mean
    }

    /// Flat actor parameters (weight-identity checks in tests).
    pub fn actor_params(&self) -> &[f32] {
        self.actor.params()
    }

    /// Flat critic parameters (weight-identity checks in tests).
    pub fn critic_params(&self) -> &[f32] {
        self.critic.params()
    }

    /// One PPO update over the buffer's contents. The buffer must contain
    /// complete episodes; `finish` is called here.
    pub fn update(&mut self, buffer: &mut RolloutBuffer, rng: &mut StdRng) -> UpdateStats {
        self.update_profiled(buffer, rng, false).0
    }

    /// [`PpoAgent::update`] with worker accounting for the `ppo-update`
    /// `par_stage` telemetry event. `timed` requests busy-time measurement
    /// (callers with disabled telemetry read no clock).
    ///
    /// Each minibatch is one fan-out over two network passes
    /// (`genet_par::par_map_mut_profiled`): the actor's forward, clipped
    /// surrogate + entropy loss rows and backward on one worker, the
    /// critic's forward, value error and backward on another (both on the
    /// caller at one worker). Each pass runs its whole minibatch through
    /// [`Mlp::forward_batch`] and [`Mlp::backward_batch_accum`], so every
    /// parameter's gradient is summed in ascending sample order — the
    /// serial per-sample FP sequence — and the two nets share no mutable
    /// state. Weights and [`UpdateStats`] are therefore bit-identical at
    /// any worker count (DESIGN.md §11).
    pub fn update_profiled(
        &mut self,
        buffer: &mut RolloutBuffer,
        rng: &mut StdRng,
        timed: bool,
    ) -> (UpdateStats, UpdateProfile) {
        buffer.finish(self.cfg.gamma, self.cfg.lambda);
        let Self {
            actor,
            critic,
            opt_actor,
            opt_critic,
            cfg,
            ..
        } = self;
        let n = buffer.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut passes = [
            NetPass::new(Net::Actor, actor),
            NetPass::new(Net::Critic, critic),
        ];
        let mut xs: Vec<f32> = Vec::new();
        let mut stats = UpdateStats::default();
        let mut stat_batches = 0usize;
        let mut profile = UpdateProfile {
            samples: (n * cfg.epochs) as u64,
            stage: genet_par::BatchProfile {
                workers: 1,
                ..Default::default()
            },
        };

        for _epoch in 0..cfg.epochs {
            indices.shuffle(rng);
            for chunk in indices.chunks(cfg.minibatch) {
                let inv = 1.0 / chunk.len() as f32;
                let buffer = &*buffer;
                // Stage the minibatch's observations once; both passes
                // read them.
                xs.clear();
                for &i in chunk {
                    xs.extend_from_slice(buffer.obs(i));
                }
                let (sums, bp) = genet_par::par_map_mut_profiled(
                    &mut passes,
                    |_, pass| match pass.net {
                        Net::Actor => pass.actor(actor, cfg, buffer, chunk, &xs, inv),
                        Net::Critic => pass.critic(critic, buffer, chunk, &xs, inv),
                    },
                    timed,
                );
                if timed {
                    // Re-express the per-worker items (network passes) in
                    // samples: each pass covers the whole minibatch.
                    let per_pass = [chunk.len() as u64; 2];
                    profile.stage.absorb(&genet_par::BatchProfile {
                        worker_items: genet_par::sum_per_worker(&per_pass, bp.workers),
                        ..bp
                    });
                }
                let (a, c) = (sums[0], sums[1]);
                let (ga, gc) = (&passes[0].grads, &passes[1].grads);
                debug_assert!(
                    a.policy_loss.is_finite() && c.value_loss.is_finite(),
                    "non-finite PPO loss: policy {} value {}",
                    a.policy_loss,
                    c.value_loss
                );
                debug_assert!(
                    ga.iter().chain(gc).all(|g| g.is_finite()),
                    "non-finite gradient in PPO update"
                );
                opt_actor.step(actor.params_mut(), ga);
                opt_critic.step(critic.params_mut(), gc);

                stats.policy_loss += a.policy_loss * inv;
                stats.value_loss += c.value_loss * inv;
                stats.entropy += a.entropy * inv;
                stats.approx_kl += a.approx_kl * inv;
                stat_batches += 1;
            }
        }
        if stat_batches > 0 {
            let s = 1.0 / stat_batches as f32;
            stats.policy_loss *= s;
            stats.value_loss *= s;
            stats.entropy *= s;
            stats.approx_kl *= s;
        }
        buffer.clear();
        (stats, profile)
    }

    /// An immutable evaluation snapshot implementing [`genet_env::Policy`].
    pub fn policy(&self, mode: PolicyMode) -> PpoPolicy {
        PpoPolicy {
            actor: self.actor.clone(),
            mode,
        }
    }

    /// Saves actor+critic parameters to a plain-text file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (tag, net) in [("actor", &self.actor), ("critic", &self.critic)] {
            write!(f, "{tag}")?;
            for s in net.sizes() {
                write!(f, " {s}")?;
            }
            writeln!(f)?;
            for p in net.params() {
                writeln!(f, "{p}")?;
            }
        }
        Ok(())
    }

    /// Loads parameters previously written by [`PpoAgent::save`] into this
    /// agent (shapes must match).
    pub fn load(&mut self, path: &Path) -> std::io::Result<()> {
        let f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut lines = f.lines();
        for (tag, net) in [("actor", &mut self.actor), ("critic", &mut self.critic)] {
            let header = lines.next().unwrap_or_else(|| {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "missing header",
                ))
            })?;
            let mut parts = header.split_whitespace();
            let got_tag = parts.next().unwrap_or("");
            if got_tag != tag {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("expected section {tag}, got {got_tag}"),
                ));
            }
            let mut sizes: Vec<usize> = Vec::new();
            for p in parts {
                sizes.push(p.parse().map_err(|_| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unparsable layer size {p:?} in {tag} header"),
                    )
                })?);
            }
            if sizes != net.sizes() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "shape mismatch in {tag}: file {sizes:?} vs net {:?}",
                        net.sizes()
                    ),
                ));
            }
            for p in net.params_mut() {
                let line = lines.next().unwrap_or_else(|| {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "missing param",
                    ))
                })?;
                *p = line.trim().parse().map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e}"))
                })?;
            }
        }
        Ok(())
    }
}

/// A `Sync`, read-only behaviour-policy snapshot borrowed from a
/// [`PpoAgent`] — actor and critic by shared reference, no optimizer state,
/// no scratch. Rollout workers each call [`FrozenPolicy::rollout_episode`]
/// with an episode-local RNG, so `K × N` episodes of one training iteration
/// can be collected concurrently and in any order while the agent itself
/// stays untouched until the PPO update.
#[derive(Debug, Clone, Copy)]
pub struct FrozenPolicy<'a> {
    actor: &'a Mlp,
    critic: &'a Mlp,
}

impl FrozenPolicy<'_> {
    /// Samples an action for `obs`, returning `(action, log_prob, value)`.
    /// Forward passes and the action distribution run in the
    /// caller-provided scratch buffers.
    pub fn act_sample(
        &self,
        obs: &[f32],
        scratch_a: &mut MlpScratch,
        scratch_c: &mut MlpScratch,
        probs: &mut Vec<f32>,
        rng: &mut StdRng,
    ) -> (usize, f32, f32) {
        let logits = self.actor.forward(obs, scratch_a);
        let probs = softmax::softmax_into(logits, probs);
        let action = softmax::sample_categorical(probs, rng);
        let log_prob = softmax::log_prob(probs, action);
        let value = self.critic.forward(obs, scratch_c)[0];
        (action, log_prob, value)
    }

    /// Runs one full episode on `env` with the episode-local `rng`,
    /// returning its transitions as an [`EpisodeBuffer`]. Allocates its own
    /// forward-pass and action-distribution scratch once per episode
    /// (observations are copied into the buffer's flat arena, so the step
    /// loop itself allocates nothing), and concurrent calls never share
    /// mutable state.
    pub fn rollout_episode(&self, env: &mut dyn Env, rng: &mut StdRng) -> EpisodeBuffer {
        let mut scratch_a = self.actor.scratch();
        let mut scratch_c = self.critic.scratch();
        let mut probs = Vec::with_capacity(self.action_count());
        let mut obs = vec![0.0f32; env.obs_dim()];
        let mut episode = EpisodeBuffer::new();
        loop {
            env.observe(&mut obs);
            let (action, log_prob, value) =
                self.act_sample(&obs, &mut scratch_a, &mut scratch_c, &mut probs, rng);
            let out = env.step(action);
            episode.push_step(
                &obs,
                StepMeta {
                    action,
                    log_prob,
                    value,
                    reward: out.reward as f32,
                    done: out.done,
                },
            );
            if out.done {
                break;
            }
            assert!(
                episode.len() < genet_env::MAX_EPISODE_STEPS,
                "environment did not terminate"
            );
        }
        episode
    }

    /// Observation width the actor was built for.
    pub fn obs_dim(&self) -> usize {
        self.actor.input_dim()
    }

    /// Size of the discrete action space (actor logit count).
    pub fn action_count(&self) -> usize {
        self.actor.output_dim()
    }

    /// Greedy scalar decision for one observation: one actor forward pass,
    /// then a logit argmax — the exact decision core of a
    /// [`PolicyMode::Greedy`] [`PpoPolicy`], without cloning the actor.
    /// The forward-pass buffer is cached in `scratch` through the same
    /// slot-reuse path as [`Policy::act_with`], so a serving loop that
    /// threads one [`PolicyScratch`] per shard allocates nothing in steady
    /// state.
    pub fn act_greedy_with(&self, obs: &[f32], scratch: &mut PolicyScratch) -> usize {
        let cached = scratch.get_or_insert_with(
            // A scratch cached by a different-shape policy is re-allocated.
            |s: &MlpScratch| self.actor.scratch_fits(s),
            || self.actor.scratch(),
        );
        softmax::argmax(self.actor.forward(obs, cached))
    }

    /// Batched greedy decisions over `batch` observations stored row-major
    /// in `obs` (`batch × obs_dim`), appended to `out` (cleared first).
    /// Routed through the same zero-alloc [`PolicyScratch`] slot-cache as
    /// [`Policy::act_with`]: the [`MlpBatchScratch`] lives in `scratch` and
    /// is reused across calls (growing on demand, so mixed batch sizes and
    /// policy shapes are safe).
    ///
    /// Bit-compatibility: [`Mlp::forward_batch`] computes each row with the
    /// exact floating-point sequence of the scalar forward pass, and the
    /// argmax is per-row — so `out[s]` is identical to
    /// [`FrozenPolicy::act_greedy_with`] (and to a greedy
    /// [`PpoPolicy`]'s `act`/`act_with`) on row `s` alone, for any batch
    /// composition. This is what lets a serving engine regroup sessions
    /// into arbitrary batches without perturbing a single decision.
    ///
    /// # Panics
    /// Panics if `batch == 0` or `obs.len() != batch * obs_dim`.
    pub fn act_batch(
        &self,
        obs: &[f32],
        batch: usize,
        scratch: &mut PolicyScratch,
        out: &mut Vec<usize>,
    ) {
        let cached = scratch.get_or_insert_with(
            // `MlpBatchScratch::ensure` re-shapes on any mismatch, so a
            // cached batch scratch is reusable as-is.
            |_: &MlpBatchScratch| true,
            MlpBatchScratch::default,
        );
        let logits = self.actor.forward_batch(obs, batch, cached);
        let dim = self.actor.output_dim();
        out.clear();
        out.extend(logits.chunks_exact(dim).map(softmax::argmax));
    }
}

/// How a [`PpoPolicy`] picks actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// Argmax of the logits — deterministic evaluation.
    Greedy,
    /// Sample from the softmax — behaviour policy.
    Stochastic,
}

/// A frozen actor snapshot usable wherever `genet_env::Policy` is expected.
///
/// The policy holds no mutable state, which keeps it `Sync` so evaluations
/// can fan out across threads. Rollout loops that thread a
/// [`PolicyScratch`] through [`Policy::act_with`] reuse one forward-pass
/// buffer for the whole episode; the bare [`Policy::act`] allocates a fresh
/// scratch per call.
#[derive(Debug, Clone)]
pub struct PpoPolicy {
    actor: Mlp,
    mode: PolicyMode,
}

impl PpoPolicy {
    /// The shared decision core of `act`/`act_with`.
    fn decide(&self, obs: &[f32], rng: &mut StdRng, scratch: &mut MlpScratch) -> usize {
        let logits = self.actor.forward(obs, scratch);
        match self.mode {
            PolicyMode::Greedy => softmax::argmax(logits),
            PolicyMode::Stochastic => {
                let mut buf = Vec::new();
                softmax::sample_categorical(softmax::softmax_into(logits, &mut buf), rng)
            }
        }
    }
}

impl Policy for PpoPolicy {
    fn act(&self, obs: &[f32], rng: &mut StdRng) -> usize {
        let mut scratch = self.actor.scratch();
        self.decide(obs, rng, &mut scratch)
    }

    fn act_with(&self, obs: &[f32], rng: &mut StdRng, scratch: &mut PolicyScratch) -> usize {
        let cached = scratch.get_or_insert_with(
            // A scratch cached by a different-shape policy is re-allocated.
            |s: &MlpScratch| self.actor.scratch_fits(s),
            || self.actor.scratch(),
        );
        self.decide(obs, rng, cached)
    }
}

/// Convenience: agent trained in-place on a closure-provided env generator.
/// Used by unit tests and the quickstart example; the real training loops
/// live in `genet-core`.
pub fn train_on<F>(
    agent: &mut PpoAgent,
    mut make_env: F,
    episodes_per_iter: usize,
    iterations: usize,
    seed: u64,
) -> Vec<f64>
where
    F: FnMut(u64) -> Box<dyn Env>,
{
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x7EA1));
    let mut buffer = RolloutBuffer::new();
    let mut history = Vec::with_capacity(iterations);
    let mut env_counter = 0u64;
    for _ in 0..iterations {
        let mut iter_reward = 0.0;
        for _ in 0..episodes_per_iter {
            let mut env = make_env(env_counter);
            env_counter += 1;
            iter_reward += agent.collect_episode(env.as_mut(), &mut buffer, &mut rng);
        }
        agent.update(&mut buffer, &mut rng);
        history.push(iter_reward / episodes_per_iter as f64);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_env::StepOutcome;

    /// A 2-armed bandit-ish env: action 1 always pays 1, action 0 pays 0.
    struct Bandit {
        t: usize,
    }

    impl Env for Bandit {
        fn obs_dim(&self) -> usize {
            2
        }
        fn action_count(&self) -> usize {
            2
        }
        fn observe(&self, out: &mut [f32]) {
            out[0] = 1.0;
            out[1] = self.t as f32 / 16.0;
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            self.t += 1;
            StepOutcome {
                reward: action as f64,
                done: self.t >= 16,
            }
        }
    }

    /// A contextual env: reward 1 iff the action matches the observed bit.
    struct Contextual {
        bit: usize,
        t: usize,
        seed: u64,
    }

    impl Env for Contextual {
        fn obs_dim(&self) -> usize {
            1
        }
        fn action_count(&self) -> usize {
            2
        }
        fn observe(&self, out: &mut [f32]) {
            out[0] = self.bit as f32 * 2.0 - 1.0;
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            let reward = (action == self.bit) as u32 as f64;
            self.t += 1;
            // Pseudo-random next bit, deterministic per env seed.
            self.bit = (genet_math::derive_seed(self.seed, self.t as u64) & 1) as usize;
            StepOutcome {
                reward,
                done: self.t >= 32,
            }
        }
    }

    #[test]
    fn learns_bandit() {
        let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 0);
        let history = train_on(&mut agent, |_| Box::new(Bandit { t: 0 }), 8, 60, 0);
        let early = history[..5].iter().sum::<f64>() / 5.0;
        let late = history[history.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(late > 0.9, "late reward {late}, early {early}");
        assert!(late > early, "should improve: early {early}, late {late}");
    }

    #[test]
    fn learns_contextual_mapping() {
        let cfg = PpoConfig {
            actor_lr: 1e-3,
            ..PpoConfig::default()
        };
        let mut agent = PpoAgent::new(1, 2, cfg, 3);
        let history = train_on(
            &mut agent,
            |seed| {
                Box::new(Contextual {
                    bit: (genet_math::derive_seed(seed, 0) & 1) as usize,
                    t: 0,
                    seed,
                })
            },
            8,
            80,
            1,
        );
        let late = history[history.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(
            late > 0.9,
            "contextual policy should be near-perfect, got {late}"
        );
    }

    #[test]
    fn greedy_policy_is_deterministic() {
        let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 9);
        let _ = train_on(&mut agent, |_| Box::new(Bandit { t: 0 }), 4, 5, 0);
        let p = agent.policy(PolicyMode::Greedy);
        let mut r1 = StdRng::seed_from_u64(0);
        let mut r2 = StdRng::seed_from_u64(99);
        // Greedy ignores the RNG entirely.
        assert_eq!(p.act(&[1.0, 0.5], &mut r1), p.act(&[1.0, 0.5], &mut r2));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("genet_rl_test_save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.txt");
        let a = PpoAgent::new(3, 4, PpoConfig::default(), 11);
        a.save(&path).unwrap();
        let mut b = PpoAgent::new(3, 4, PpoConfig::default(), 999);
        b.load(&path).unwrap();
        let pa = a.policy(PolicyMode::Greedy);
        let pb = b.policy(PolicyMode::Greedy);
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..20 {
            let obs = [i as f32 * 0.1, -0.3, 0.7];
            assert_eq!(pa.act(&obs, &mut rng), pb.act(&obs, &mut rng));
        }
    }

    #[test]
    fn load_rejects_shape_mismatch() {
        let dir = std::env::temp_dir().join("genet_rl_test_shape");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.txt");
        let a = PpoAgent::new(3, 4, PpoConfig::default(), 0);
        a.save(&path).unwrap();
        let mut b = PpoAgent::new(5, 4, PpoConfig::default(), 0);
        assert!(b.load(&path).is_err());
    }

    #[test]
    fn frozen_policy_is_sync_and_matches_collect_episode() {
        fn assert_sync<T: Sync + Send>(_: &T) {}
        let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 5);
        let frozen = agent.frozen();
        assert_sync(&frozen);

        // Same weights, same RNG stream → bit-identical transitions whether
        // collected through the agent or the frozen snapshot.
        let mut r1 = StdRng::seed_from_u64(13);
        let episode = frozen.rollout_episode(&mut Bandit { t: 0 }, &mut r1);
        let mut buffer = RolloutBuffer::new();
        let mut r2 = StdRng::seed_from_u64(13);
        let mean = agent.collect_episode(&mut Bandit { t: 0 }, &mut buffer, &mut r2);
        assert_eq!(episode.len(), buffer.len());
        assert!((episode.mean_step_reward() - mean).abs() < 1e-12);
        for (i, (a, b)) in episode.meta().iter().zip(buffer.meta()).enumerate() {
            assert_eq!(episode.obs(i), buffer.obs(i));
            assert_eq!(a.action, b.action);
            assert_eq!(a.log_prob.to_bits(), b.log_prob.to_bits());
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.reward.to_bits(), b.reward.to_bits());
            assert_eq!(a.done, b.done);
        }
    }

    #[test]
    fn load_rejects_unparsable_header_size() {
        let dir = std::env::temp_dir().join("genet_rl_test_badheader");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agent.txt");
        let a = PpoAgent::new(3, 4, PpoConfig::default(), 0);
        a.save(&path).unwrap();
        // Corrupt one header size token.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("actor 3", "actor 3x", 1);
        assert_ne!(text, corrupted, "corruption failed to apply");
        std::fs::write(&path, corrupted).unwrap();
        let mut b = PpoAgent::new(3, 4, PpoConfig::default(), 0);
        let err = b.load(&path).unwrap_err();
        // Regression: this used to parse as 0 and surface as a misleading
        // "shape mismatch"; the error must name the unparsable token.
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("unparsable layer size") && msg.contains("3x"),
            "unexpected error: {msg}"
        );
    }

    #[test]
    fn act_with_matches_act_and_reuses_scratch() {
        let agent = PpoAgent::new(3, 4, PpoConfig::default(), 17);
        let p = agent.policy(PolicyMode::Stochastic);
        let mut scratch = genet_env::PolicyScratch::new();
        for i in 0..32 {
            let obs = [i as f32 * 0.1 - 1.0, 0.4, -0.2];
            // Identical RNG streams → identical samples.
            let mut r1 = StdRng::seed_from_u64(i);
            let mut r2 = StdRng::seed_from_u64(i);
            assert_eq!(
                p.act(&obs, &mut r1),
                p.act_with(&obs, &mut r2, &mut scratch)
            );
        }
        // A different-shape policy must survive a stale cached scratch.
        let other = PpoAgent::new(5, 2, PpoConfig::default(), 18).policy(PolicyMode::Greedy);
        let mut rng = StdRng::seed_from_u64(0);
        let obs5 = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(
            other.act(&obs5, &mut rng),
            other.act_with(&obs5, &mut rng, &mut scratch)
        );
    }

    /// Serializes the tests of this module that move the process-wide
    /// worker-count override, so one never runs under another's count.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_override() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn update_is_thread_count_invariant() {
        // One update() on a fixed pre-filled buffer must produce
        // bit-identical weights and stats at 1 / 2 / default workers.
        // (The cross-stage train-loop invariance test lives in
        // genet-core/tests/thread_invariance.rs; a standalone
        // update-stage test also runs in genet-rl/tests/.)
        let _guard = lock_override();
        let fingerprint = |threads: Option<usize>| {
            genet_par::override_worker_threads(threads);
            let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 77);
            let mut buffer = RolloutBuffer::new();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..6 {
                agent.collect_episode(&mut Bandit { t: 0 }, &mut buffer, &mut rng);
            }
            let stats = agent.update(&mut buffer, &mut rng);
            genet_par::override_worker_threads(None);
            let mut bits: Vec<u32> = agent.actor_params().iter().map(|v| v.to_bits()).collect();
            bits.extend(agent.critic_params().iter().map(|v| v.to_bits()));
            bits.extend(
                [
                    stats.policy_loss,
                    stats.value_loss,
                    stats.entropy,
                    stats.approx_kl,
                ]
                .iter()
                .map(|v| v.to_bits()),
            );
            bits
        };
        let serial = fingerprint(Some(1));
        assert_eq!(serial, fingerprint(Some(2)), "2 workers diverged");
        assert_eq!(serial, fingerprint(None), "default workers diverged");
    }

    #[test]
    fn timed_update_accounts_both_network_passes() {
        // Each minibatch fans out over one actor and one critic pass: two
        // workers when two are allowed, both passes on the caller at one.
        // An item is one network's pass over one sample.
        let _guard = lock_override();
        for (threads, workers) in [(2usize, 2usize), (1, 1)] {
            genet_par::override_worker_threads(Some(threads));
            let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 31);
            let mut buffer = RolloutBuffer::new();
            let mut rng = StdRng::seed_from_u64(8);
            for _ in 0..20 {
                agent.collect_episode(&mut Bandit { t: 0 }, &mut buffer, &mut rng);
            }
            let n = buffer.len() as u64;
            let (_, profile) = agent.update_profiled(&mut buffer, &mut rng, true);
            genet_par::override_worker_threads(None);
            let samples = n * PpoConfig::default().epochs as u64;
            assert_eq!(profile.samples, samples);
            assert_eq!(profile.stage.workers, workers, "at {threads} threads");
            assert_eq!(profile.stage.worker_busy.len(), workers);
            assert_eq!(
                profile.stage.busy_nanos,
                profile.stage.worker_busy.iter().sum::<u64>()
            );
            assert!(profile.stage.busy_nanos > 0);
            // Per worker: the actor's and the critic's samples, or both.
            let expect_items = if workers == 2 {
                vec![samples, samples]
            } else {
                vec![2 * samples]
            };
            assert_eq!(profile.stage.worker_items, expect_items);
        }
    }

    #[test]
    fn update_reports_finite_stats() {
        let mut agent = PpoAgent::new(2, 2, PpoConfig::default(), 4);
        let mut buffer = RolloutBuffer::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mut env = Bandit { t: 0 };
        agent.collect_episode(&mut env, &mut buffer, &mut rng);
        let stats = agent.update(&mut buffer, &mut rng);
        assert!(stats.policy_loss.is_finite());
        assert!(stats.value_loss.is_finite());
        assert!(stats.entropy > 0.0);
    }

    /// The serving-side decision paths must agree bit-for-bit with the
    /// evaluation-side ones, per session: `act_batch` row `s` ==
    /// `act_greedy_with` == a greedy `PpoPolicy`'s `act`/`act_with` on the
    /// same observation (companion to the forward_batch bit-equality tests
    /// in `mlp.rs`).
    #[test]
    fn act_batch_rows_bit_equal_scalar_act() {
        let (obs_dim, actions) = (6, 5);
        let agent = PpoAgent::new(obs_dim, actions, PpoConfig::default(), 99);
        let frozen = agent.frozen();
        let policy = agent.policy(PolicyMode::Greedy);
        // Full 8-lane blocks plus a ragged tail.
        let batch = 37;
        let obs: Vec<f32> = (0..batch * obs_dim)
            .map(|i| ((i * 37) % 100) as f32 * 0.02 - 1.0)
            .collect();
        let mut rng = StdRng::seed_from_u64(0);
        let mut scalar_scratch = PolicyScratch::new();
        let mut batch_scratch = PolicyScratch::new();
        let mut decisions = Vec::new();
        frozen.act_batch(&obs, batch, &mut batch_scratch, &mut decisions);
        assert_eq!(decisions.len(), batch);
        for (s, row) in obs.chunks_exact(obs_dim).enumerate() {
            assert_eq!(decisions[s], policy.act(row, &mut rng), "row {s} vs act");
            assert_eq!(
                decisions[s],
                policy.act_with(row, &mut rng, &mut scalar_scratch),
                "row {s} vs act_with"
            );
            assert_eq!(
                decisions[s],
                frozen.act_greedy_with(row, &mut scalar_scratch),
                "row {s} vs act_greedy_with"
            );
        }
        // A smaller follow-up batch reuses the cached scratch (the serving
        // hot loop regroups sessions into batches of varying occupancy) and
        // still matches the per-row decisions of the larger batch.
        let head: Vec<usize> = decisions[..8].to_vec();
        frozen.act_batch(&obs[..8 * obs_dim], 8, &mut batch_scratch, &mut decisions);
        assert_eq!(decisions, head, "regrouped batch changed decisions");
    }
}
