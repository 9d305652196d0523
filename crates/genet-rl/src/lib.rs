//! # genet-rl
//!
//! The deep-RL substrate of the Genet reproduction, written from scratch:
//! no ML framework, just `Vec<f32>` math.
//!
//! The paper trains its three use cases with A3C (Pensieve ABR, Park LB) and
//! PPO (Aurora CC). Genet itself is agnostic to the inner RL optimizer — it
//! only calls `Train`/`Test` (Figure 8) — so this reproduction standardizes
//! on one well-understood algorithm, PPO-clip actor-critic with generalized
//! advantage estimation, over small multi-layer perceptrons. That is enough
//! to reproduce the training *dynamics* the paper studies (good convergence
//! on narrow environment distributions, poor asymptotic performance on wide
//! ones, curriculum-driven improvement).
//!
//! Modules:
//! * [`mlp`] — dense feed-forward network with tanh hidden layers, manual
//!   backprop; the tanh is the crate's own bit-exact fdlibm port
//!   (`activation`, scalar and 8-lane forms),
//! * [`adam`] — Adam optimizer on flat parameter vectors,
//! * [`softmax`] — categorical policy head (sampling, log-prob, entropy),
//! * [`buffer`] — rollout storage + generalized advantage estimation,
//! * [`ppo`] — the PPO-clip trainer and the [`ppo::PpoPolicy`] evaluation
//!   wrappers implementing `genet_env::Policy`.

#![forbid(unsafe_code)]

mod activation;
pub mod adam;
pub mod buffer;
pub mod mlp;
pub mod ppo;
pub mod softmax;

pub use adam::Adam;
pub use buffer::{EpisodeBuffer, RolloutBuffer, StepMeta};
pub use mlp::{Mlp, MlpBatchScratch, MlpScratch};
pub use ppo::{
    train_on, FrozenPolicy, PolicyMode, PpoAgent, PpoConfig, PpoPolicy, UpdateProfile, UpdateStats,
};
