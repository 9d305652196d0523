//! # genet-bo
//!
//! Blackbox maximization of `Gap(p)` over the environment-configuration
//! space (paper §4.2: "we cast the search for environments with a large
//! gap-to-baseline as a maximum-search problem of a blackbox function in a
//! high-dimensional space … BO is then used").
//!
//! * [`gp`] — Gaussian-process regression with an RBF kernel on unit-cube
//!   inputs, fitted by Cholesky factorization (`genet-math`),
//! * [`acquisition`] — Expected Improvement,
//! * [`bayes`] — the [`BayesOpt`] loop: seed with random probes, then
//!   propose the EI-argmax over a random candidate pool,
//! * [`search`] — the Figure-20 comparators: pure [`search::RandomSearch`]
//!   and coordinate-wise [`search::GridSearch`] ("starts with all
//!   configurations initialized to their respective midpoints and then
//!   searches and updates the best value for each configuration one by
//!   one").
//!
//! All three expose the same two-call interface ([`Proposer`]): `propose`
//! a configuration, `observe` its measured objective value — exactly the
//! `BO.GetNextChoice()` / `BO.Update(p, adv)` pair of the paper's
//! Algorithm 2.

#![forbid(unsafe_code)]

pub mod acquisition;
pub mod bayes;
pub mod gp;
pub mod search;

pub use acquisition::expected_improvement;
pub use bayes::{BayesOpt, EI_SCORE_STAGE};
pub use gp::{GaussianProcess, GpScratch};
pub use search::{GridSearch, RandomSearch};

use genet_env::EnvConfig;
use genet_telemetry::Collector;
use rand::rngs::StdRng;

/// A sequential blackbox-maximization strategy over environment configs.
pub trait Proposer {
    /// Proposes the next configuration to evaluate.
    fn propose(&mut self, rng: &mut StdRng) -> EnvConfig;

    /// [`Proposer::propose`] with an attached telemetry collector.
    /// Strategies with a parallel scoring stage (EI over the candidate
    /// pool) report it here as a `ParStage`; the default ignores the
    /// collector. Observation-only: the proposal is bit-identical to
    /// [`Proposer::propose`] with any collector attached.
    fn propose_with(&mut self, rng: &mut StdRng, collector: &dyn Collector) -> EnvConfig {
        let _ = collector;
        self.propose(rng)
    }

    /// Feeds back the measured objective for a proposed configuration. A
    /// non-finite `value` (a criterion that returned NaN) is ignored: it is
    /// never stored and never becomes [`Proposer::best`], while the
    /// strategy otherwise moves on as after any observation.
    fn observe(&mut self, cfg: EnvConfig, value: f64);

    /// Best `(config, value)` observed so far, if any — the paper's
    /// `BO.GetDecision()`.
    fn best(&self) -> Option<(&EnvConfig, f64)>;

    /// Acquisition value of the most recent proposal (e.g. expected
    /// improvement), when the strategy computes one. Purely diagnostic —
    /// telemetry reports it; nothing in the search consumes it.
    fn last_acquisition(&self) -> Option<f64> {
        None
    }
}
