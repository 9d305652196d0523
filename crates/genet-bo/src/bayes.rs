//! The Bayesian-optimization loop.
//!
//! Mirrors the paper's Algorithm 2 usage: `BO.Initialize(Q)` =
//! [`BayesOpt::new`], `BO.GetNextChoice()` = [`Proposer::propose`],
//! `BO.Update(p, adv)` = [`Proposer::observe`], `BO.GetDecision()` =
//! [`Proposer::best`]. Genet restarts the search from scratch every
//! sequencing round (the rewarding environments move when the RL model
//! moves), which is why construction is cheap and stateless beyond the
//! observation list.

use crate::acquisition::expected_improvement;
use crate::gp::{GaussianProcess, GpParams, GpScratch};
use crate::Proposer;
use genet_env::{EnvConfig, ParamSpace};
use genet_par::par_map_sharded;
use genet_telemetry::{Collector, Event};
use rand::rngs::StdRng;

/// Telemetry stage name of the sharded EI candidate-scoring batch.
pub const EI_SCORE_STAGE: &str = "ei_score";

/// Bayesian optimization over a [`ParamSpace`].
#[derive(Debug, Clone)]
pub struct BayesOpt {
    space: ParamSpace,
    gp_params: GpParams,
    /// Random probes before the GP takes over.
    n_init: usize,
    /// Random candidate-pool size for the EI argmax.
    n_candidates: usize,
    /// EI exploration jitter.
    xi: f64,
    obs_x: Vec<EnvConfig>,
    obs_y: Vec<f64>,
    /// Unit-cube images of `obs_x`, maintained incrementally by `observe`
    /// so `propose` refits the GP without re-normalizing the history.
    norm_x: Vec<Vec<f64>>,
    /// The proposal waiting for its observation (to pair them up safely).
    pending: Option<EnvConfig>,
    /// EI of the latest proposal (`None` during the random-init probes).
    last_ei: Option<f64>,
}

impl BayesOpt {
    /// Creates a fresh search over `space` with default settings
    /// (3 random initial probes, 256-point EI candidate pool).
    pub fn new(space: ParamSpace) -> Self {
        Self {
            space,
            gp_params: GpParams::default(),
            n_init: 3,
            n_candidates: 256,
            xi: 0.01,
            obs_x: Vec::new(),
            obs_y: Vec::new(),
            norm_x: Vec::new(),
            pending: None,
            last_ei: None,
        }
    }

    /// Overrides the number of purely random initial probes.
    pub fn with_init_probes(mut self, n: usize) -> Self {
        self.n_init = n.max(1);
        self
    }

    /// Overrides the GP kernel hyperparameters.
    pub fn with_gp_params(mut self, p: GpParams) -> Self {
        self.gp_params = p;
        self
    }

    /// Number of completed observations.
    pub fn observations(&self) -> usize {
        self.obs_y.len()
    }

    /// All observed `(config, value)` pairs.
    pub fn history(&self) -> impl Iterator<Item = (&EnvConfig, f64)> {
        self.obs_x.iter().zip(self.obs_y.iter().copied())
    }

    /// The proposal logic behind both [`Proposer::propose`] entry points.
    ///
    /// The whole candidate pool is drawn from `rng` *before* any scoring
    /// (fallback first, then `n_candidates` — the exact call sequence of the
    /// historical sample-score-interleaved loop, so the RNG stream is
    /// unchanged), then scored in one sharded batch with a per-worker
    /// [`GpScratch`] (`predict_into` is bit-identical to `predict`
    /// regardless of scratch history). The winner is the **first** index
    /// attaining the maximum EI, which is exactly what the serial strict
    /// `ei > best_ei` update selected — so proposals are bit-identical at
    /// any thread count.
    fn propose_impl(&mut self, rng: &mut StdRng, collector: &dyn Collector) -> EnvConfig {
        let cfg = if self.obs_y.len() < self.n_init {
            self.last_ei = None;
            self.space.sample(rng)
        } else {
            let gp = GaussianProcess::fit(&self.norm_x, &self.obs_y, self.gp_params);
            let best = self.obs_y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let fallback = self.space.sample(rng);
            let mut cands: Vec<EnvConfig> = (0..self.n_candidates)
                .map(|_| self.space.sample(rng))
                .collect();
            let space = &self.space;
            let xi = self.xi;
            let (eis, profile) = par_map_sharded(
                cands.len(),
                GpScratch::default,
                |i, scratch| {
                    let (m, v) = gp.predict_into(&space.normalize(&cands[i]), scratch);
                    expected_improvement(m, v, best, xi)
                },
                collector.enabled(),
            );
            if collector.enabled() && !eis.is_empty() {
                collector.record(&Event::par_stage(
                    EI_SCORE_STAGE,
                    "",
                    eis.len() as u64,
                    profile.workers as u64,
                    profile.worker_busy,
                    profile.worker_items,
                ));
            }
            let mut best_i = None;
            let mut best_ei = f64::NEG_INFINITY;
            for (i, &ei) in eis.iter().enumerate() {
                if ei > best_ei {
                    best_ei = ei;
                    best_i = Some(i);
                }
            }
            self.last_ei = Some(best_ei);
            match best_i {
                Some(i) => cands.swap_remove(i),
                // Empty candidate pool (n_candidates == 0) — the serial
                // loop returned its pre-drawn random fallback here too.
                None => fallback,
            }
        };
        self.pending = Some(cfg.clone());
        cfg
    }
}

impl Proposer for BayesOpt {
    fn propose(&mut self, rng: &mut StdRng) -> EnvConfig {
        self.propose_impl(rng, genet_telemetry::noop())
    }

    fn propose_with(&mut self, rng: &mut StdRng, collector: &dyn Collector) -> EnvConfig {
        self.propose_impl(rng, collector)
    }

    fn observe(&mut self, cfg: EnvConfig, value: f64) {
        self.pending = None;
        // The GP cannot fit a non-finite value.
        if !value.is_finite() {
            return;
        }
        self.norm_x.push(self.space.normalize(&cfg));
        self.obs_x.push(cfg);
        self.obs_y.push(value);
    }

    fn best(&self) -> Option<(&EnvConfig, f64)> {
        let (mut best_i, mut best_v) = (None, f64::NEG_INFINITY);
        for (i, &v) in self.obs_y.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best_i = Some(i);
            }
        }
        best_i.map(|i| (&self.obs_x[i], best_v))
    }

    fn last_acquisition(&self) -> Option<f64> {
        self.last_ei
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_env::ParamDim;
    use rand::SeedableRng;

    fn space2() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDim::new("a", 0.0, 10.0),
            ParamDim::new("b", -5.0, 5.0),
        ])
    }

    /// The smooth test objective: peak at (7, 2).
    fn objective(cfg: &EnvConfig) -> f64 {
        let (a, b) = (cfg.get(0), cfg.get(1));
        -((a - 7.0).powi(2) / 4.0 + (b - 2.0).powi(2))
    }

    fn run(proposer: &mut dyn Proposer, steps: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..steps {
            let cfg = proposer.propose(&mut rng);
            let y = objective(&cfg);
            proposer.observe(cfg, y);
        }
        proposer.best().expect("observations exist").1
    }

    #[test]
    fn finds_near_optimum_within_15_steps() {
        // The paper's default budget is 15 BO trials per sequencing round.
        let mut results = Vec::new();
        for seed in 0..5 {
            let mut bo = BayesOpt::new(space2());
            results.push(run(&mut bo, 15, seed));
        }
        let mean_best = genet_math::mean(&results);
        // Optimum is 0; random-search expectation at 15 samples is ≈ −2.
        assert!(
            mean_best > -1.5,
            "BO should close in on the peak, got {mean_best}"
        );
    }

    #[test]
    fn beats_pure_random_on_average() {
        let mut bo_score = 0.0;
        let mut rnd_score = 0.0;
        for seed in 0..8 {
            let mut bo = BayesOpt::new(space2());
            bo_score += run(&mut bo, 15, seed);
            let mut rnd = crate::search::RandomSearch::new(space2());
            rnd_score += run(&mut rnd, 15, seed);
        }
        assert!(
            bo_score >= rnd_score,
            "BO total {bo_score} should beat random total {rnd_score}"
        );
    }

    #[test]
    fn best_tracks_maximum() {
        let mut bo = BayesOpt::new(space2());
        let mut rng = StdRng::seed_from_u64(1);
        let c1 = bo.propose(&mut rng);
        bo.observe(c1, 1.0);
        let c2 = bo.propose(&mut rng);
        bo.observe(c2.clone(), 5.0);
        let c3 = bo.propose(&mut rng);
        bo.observe(c3, 3.0);
        let (cfg, v) = bo.best().unwrap();
        assert_eq!(v, 5.0);
        assert_eq!(cfg, &c2);
    }

    #[test]
    fn proposals_stay_in_space() {
        let mut bo = BayesOpt::new(space2());
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..20 {
            let cfg = bo.propose(&mut rng);
            assert!(space2().contains(&cfg), "step {i}: {cfg}");
            bo.observe(cfg, (i as f64).sin());
        }
    }

    #[test]
    fn last_acquisition_tracks_phase() {
        let mut bo = BayesOpt::new(space2());
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..6 {
            let cfg = bo.propose(&mut rng);
            if i < 3 {
                // Random-init probes carry no EI.
                assert_eq!(bo.last_acquisition(), None, "probe {i}");
            } else {
                let ei = bo.last_acquisition().expect("EI phase");
                assert!(ei.is_finite() && ei >= 0.0, "probe {i}: {ei}");
            }
            bo.observe(cfg, (i as f64).cos());
        }
    }

    #[test]
    fn ignores_non_finite_observation() {
        // Non-finite values are never stored and never best, and the search
        // goes on as if they had not been observed: the same proposals as
        // a search that only saw the finite values.
        let mut bo = BayesOpt::new(space2());
        let mut clean = BayesOpt::new(space2());
        let (mut rng, mut clean_rng) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        for i in 0..8 {
            let cfg = bo.propose(&mut rng);
            assert_eq!(cfg, clean.propose(&mut clean_rng), "proposal {i}");
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3];
            bo.observe(cfg.clone(), bad);
            if i % 2 == 1 {
                let v = (i as f64).sin();
                bo.observe(cfg.clone(), v);
                clean.observe(cfg, v);
            }
        }
        assert_eq!(bo.observations(), clean.observations());
        assert!(bo.history().all(|(_, v)| v.is_finite()));
        assert_eq!(bo.best().map(|(_, v)| v), clean.best().map(|(_, v)| v));
        let mut empty = BayesOpt::new(space2());
        let cfg = empty.propose(&mut rng);
        empty.observe(cfg, f64::NAN);
        assert!(empty.best().is_none());
    }
}
