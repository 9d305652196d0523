//! The Genet training loop — Algorithm 2 of the paper.
//!
//! Each sequencing round: train for `iters_per_round` iterations on the
//! current curriculum distribution, restart a Bayesian-optimization search
//! over the *full* configuration space for the environment maximizing the
//! selection criterion (gap-to-baseline for Genet proper), promote the
//! winner into the distribution with weight `w`, repeat.
//!
//! The selection criterion is pluggable so the same loop realizes the
//! paper's comparators: CL2 (baseline performance), CL3 (gap-to-optimum)
//! and the Robustify-objective BO variants of Figure 19.

use crate::plan::{self, GapEvalCache};
use crate::train::{make_agent, train_rl_with, TrainConfig, TrainLog};
use genet_bo::{BayesOpt, Proposer};
use genet_env::{CurriculumDist, EnvConfig, ParamSpace, Policy, Scenario};
use genet_math::derive_seed;
use genet_rl::{PolicyMode, PpoAgent, PpoPolicy};
use genet_telemetry::{counters, Collector, Event};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What the sequencing module maximizes when picking environments.
#[derive(Debug, Clone)]
pub enum SelectionCriterion {
    /// Genet: the current model's gap to a rule-based baseline.
    GapToBaseline {
        /// Baseline name (scenario-specific).
        baseline: String,
    },
    /// CL3 / Strawman 3: gap to the ground-truth oracle.
    GapToOptimum,
    /// CL2 / Strawman 2: environments where the baseline itself performs
    /// badly.
    BaselineBadness {
        /// Baseline name.
        baseline: String,
    },
    /// Figure 19: gap-to-optimum penalized by bandwidth non-smoothness
    /// (the Robustify objective plugged into Genet's BO).
    RobustifyReward {
        /// Non-smoothness penalty weight ρ.
        rho: f64,
    },
    /// §7's suggested extension: "use an 'ensemble' of rule-based
    /// heuristics, and let the training scheduler focus on environments
    /// where the RL policy falls short of any one of a set of rule-based
    /// heuristics" — the maximum gap to any baseline in the set.
    GapToEnsemble {
        /// Baseline names to take the maximum gap over.
        baselines: Vec<String>,
    },
}

impl SelectionCriterion {
    /// Evaluates the criterion for a configuration.
    pub fn evaluate(
        &self,
        scenario: &dyn Scenario,
        policy: &PpoPolicy,
        cfg: &EnvConfig,
        k: usize,
        seed: u64,
    ) -> f64 {
        self.evaluate_with(
            scenario,
            policy,
            cfg,
            k,
            seed,
            None,
            genet_telemetry::noop(),
        )
    }

    /// [`SelectionCriterion::evaluate`] through the fused eval-plan layer
    /// (DESIGN.md §15) with an optional memo cache and telemetry collector.
    ///
    /// Every criterion compiles to one deduplicated task list executed as a
    /// single `gap_eval` parallel batch: `2k` wide for the gap criteria,
    /// `3k` for `RobustifyReward` (its historical second non-smoothness
    /// barrier is fused away), `(B+1)·k` for `GapToEnsemble` (the `k`
    /// policy evals are planned once, not once per baseline). Values are
    /// bit-identical to the unfused implementation, cache or no cache.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_with<P: Policy + Sync>(
        &self,
        scenario: &dyn Scenario,
        policy: &P,
        cfg: &EnvConfig,
        k: usize,
        seed: u64,
        cache: Option<&mut GapEvalCache>,
        collector: &dyn Collector,
    ) -> f64 {
        match self {
            SelectionCriterion::GapToBaseline { baseline } => plan::gap_to_baseline_planned(
                scenario, policy, baseline, cfg, k, seed, cache, collector,
            ),
            SelectionCriterion::GapToOptimum => {
                plan::gap_to_optimum_planned(scenario, policy, cfg, k, seed, cache, collector)
            }
            SelectionCriterion::BaselineBadness { baseline } => {
                plan::baseline_badness_planned(scenario, baseline, cfg, k, seed, cache, collector)
            }
            SelectionCriterion::RobustifyReward { rho } => plan::robustify_reward_planned(
                scenario, policy, *rho, cfg, k, seed, cache, collector,
            ),
            SelectionCriterion::GapToEnsemble { baselines } => plan::gap_to_ensemble_planned(
                scenario, policy, baselines, cfg, k, seed, cache, collector,
            ),
        }
    }

    /// Short label for logs.
    pub fn label(&self) -> String {
        match self {
            SelectionCriterion::GapToBaseline { baseline } => format!("genet({baseline})"),
            SelectionCriterion::GapToOptimum => "cl3(gap-to-optimum)".into(),
            SelectionCriterion::BaselineBadness { baseline } => {
                format!("cl2(badness:{baseline})")
            }
            SelectionCriterion::RobustifyReward { rho } => format!("robustify-bo(rho={rho})"),
            SelectionCriterion::GapToEnsemble { baselines } => {
                format!("genet-ensemble({})", baselines.join("+"))
            }
        }
    }
}

/// Genet hyperparameters (paper defaults, §4.2).
#[derive(Debug, Clone)]
pub struct GenetConfig {
    /// Sequencing rounds (the paper stops after 9 distribution changes).
    pub rounds: usize,
    /// Training iterations between sequencing rounds.
    pub iters_per_round: usize,
    /// Training iterations before the first sequencing round.
    pub initial_iters: usize,
    /// BO trials per sequencing round (`NboTrials = 15`).
    pub bo_trials: usize,
    /// Environments per gap estimate (`k = 10`).
    pub k_envs: usize,
    /// Promotion weight `w = 0.3`.
    pub w: f64,
    /// Inner Algorithm-1 settings.
    pub train: TrainConfig,
    /// Selection criterion.
    pub criterion: SelectionCriterion,
}

impl GenetConfig {
    /// Paper defaults with the scenario's default baseline.
    pub fn defaults_for(scenario: &dyn Scenario) -> Self {
        Self {
            rounds: 9,
            iters_per_round: 10,
            initial_iters: 10,
            bo_trials: 15,
            k_envs: 10,
            w: 0.3,
            train: TrainConfig::default(),
            criterion: SelectionCriterion::GapToBaseline {
                baseline: scenario.default_baseline().to_string(),
            },
        }
    }

    /// Total training iterations (for budget-matched baselines).
    pub fn total_iters(&self) -> usize {
        self.initial_iters + self.rounds * self.iters_per_round
    }
}

/// Output of a Genet run.
pub struct GenetResult {
    /// The trained agent.
    pub agent: PpoAgent,
    /// Per-iteration rollout rewards across all phases.
    pub log: TrainLog,
    /// Promoted configurations with their criterion values, in order.
    pub promoted: Vec<(EnvConfig, f64)>,
    /// The final curriculum distribution.
    pub dist: CurriculumDist,
}

/// Runs Genet (Algorithm 2) from a fresh agent over `space`.
pub fn genet_train(
    scenario: &dyn Scenario,
    space: ParamSpace,
    cfg: &GenetConfig,
    seed: u64,
) -> GenetResult {
    let agent = make_agent(scenario, derive_seed(seed, 0x6E7));
    genet_train_from(scenario, space, cfg, agent, seed)
}

/// Runs Genet starting from an existing (possibly pretrained) agent.
pub fn genet_train_from(
    scenario: &dyn Scenario,
    space: ParamSpace,
    cfg: &GenetConfig,
    agent: PpoAgent,
    seed: u64,
) -> GenetResult {
    genet_train_with(scenario, space, cfg, agent, seed, |_, _| {})
}

/// [`genet_train_from`] with a progress callback invoked after the initial
/// phase and after every sequencing round — the training-curve figures
/// (Fig. 18/22) evaluate the in-progress model on a fixed test set here.
pub fn genet_train_with<F>(
    scenario: &dyn Scenario,
    space: ParamSpace,
    cfg: &GenetConfig,
    agent: PpoAgent,
    seed: u64,
    on_phase: F,
) -> GenetResult
where
    F: FnMut(usize, &PpoAgent),
{
    genet_train_instrumented(
        scenario,
        space,
        cfg,
        agent,
        seed,
        on_phase,
        genet_telemetry::noop(),
    )
}

/// [`genet_train_with`] plus an attached telemetry collector.
///
/// Emits one [`Event::BoTrial`] per sequencing trial (proposed config,
/// measured objective, expected-improvement value of the proposal) and one
/// [`Event::Promotion`] per round that promotes, alongside the
/// hierarchical spans `train`, `train/initial`, `train/sequencing/round-N`
/// and `train/sequencing/round-N/bo/trial-M` and the training
/// events/counters of [`train_rl_with`]. The collector only observes; a run
/// with sinks attached is bit-identical to a run without.
pub fn genet_train_instrumented<F>(
    scenario: &dyn Scenario,
    space: ParamSpace,
    cfg: &GenetConfig,
    mut agent: PpoAgent,
    seed: u64,
    mut on_phase: F,
    collector: &dyn Collector,
) -> GenetResult
where
    F: FnMut(usize, &PpoAgent),
{
    let _run = collector.span("train");
    let mut dist = CurriculumDist::uniform(space.clone(), cfg.w);
    let mut promoted = Vec::new();
    // Initial phase: plain domain randomization over the full space.
    let mut log = train_rl_with(
        &mut agent,
        scenario,
        &dist,
        cfg.train,
        cfg.initial_iters,
        derive_seed(seed, 0x1000),
        collector,
        "train/initial",
    );
    on_phase(0, &agent);
    for round in 0..cfg.rounds {
        let round_scope = format!("train/sequencing/round-{round}");
        let _round_span = collector.span(round_scope.clone());
        // Sequencing: fresh BO search against the *current* model (the
        // rewarding environments move whenever the model moves, so BO state
        // is never carried across rounds — §4.2).
        let policy = agent.policy(PolicyMode::Greedy);
        let mut bo = BayesOpt::new(space.clone());
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x2000 + round as u64));
        for trial in 0..cfg.bo_trials {
            let _trial_span = collector.span(format!("{round_scope}/bo/trial-{trial}"));
            let p = bo.propose_with(&mut rng, collector);
            // Every trial draws its own seed, so no memo key would repeat:
            // the gap-eval plan runs without a cache.
            let obj = cfg.criterion.evaluate_with(
                scenario,
                &policy,
                &p,
                cfg.k_envs,
                derive_seed(seed, ((round as u64) << 16) | trial as u64),
                None,
                collector,
            );
            if collector.enabled() {
                collector.counter_add(counters::BO_TRIALS, 1);
                collector.record(&Event::BoTrial {
                    round: round as u64,
                    trial: trial as u64,
                    config: p.values().to_vec(),
                    objective: obj,
                    ei: bo.last_acquisition(),
                });
            }
            // BO cannot fit a non-finite objective; such a trial is
            // recorded but not observed.
            if obj.is_finite() {
                bo.observe(p, obj);
            }
        }
        // A round with no best (`bo_trials == 0`, or no finite objective)
        // promotes nothing: the distribution stays as it is and training
        // goes on.
        if let Some((best, value)) = bo.best() {
            promoted.push((best.clone(), value));
            if collector.enabled() {
                collector.record(&Event::Promotion {
                    round: round as u64,
                    config: best.values().to_vec(),
                    value,
                });
            }
            dist.promote(best.clone());
        }
        // Resume training on the re-weighted distribution.
        let phase = train_rl_with(
            &mut agent,
            scenario,
            &dist,
            cfg.train,
            cfg.iters_per_round,
            derive_seed(seed, 0x3000 + round as u64),
            collector,
            &round_scope,
        );
        log.extend(&phase);
        on_phase(round + 1, &agent);
    }
    GenetResult {
        agent,
        log,
        promoted,
        dist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{eval_baseline_many, eval_policy_many, test_configs};
    use genet_env::RangeLevel;
    use genet_lb::LbScenario;

    fn quick_cfg(criterion: SelectionCriterion) -> GenetConfig {
        GenetConfig {
            rounds: 3,
            iters_per_round: 6,
            initial_iters: 6,
            bo_trials: 5,
            k_envs: 3,
            w: 0.3,
            train: TrainConfig {
                configs_per_iter: 8,
                envs_per_config: 2,
            },
            criterion,
        }
    }

    #[test]
    fn genet_runs_and_promotes() {
        let s = LbScenario;
        let cfg = quick_cfg(SelectionCriterion::GapToBaseline {
            baseline: "llf".into(),
        });
        let res = genet_train(&s, s.space(RangeLevel::Rl2), &cfg, 0);
        assert_eq!(res.promoted.len(), 3);
        assert_eq!(res.log.iter_rewards.len(), cfg.total_iters());
        assert_eq!(res.dist.promoted().len(), 3);
        for (c, v) in &res.promoted {
            assert!(s.space(RangeLevel::Rl2).contains(c) || s.full_space().contains(c));
            assert!(v.is_finite());
        }
    }

    #[test]
    fn rounds_without_a_best_promote_nothing() {
        let s = LbScenario;
        let mut cfg = quick_cfg(SelectionCriterion::GapToBaseline {
            baseline: "llf".into(),
        });
        cfg.bo_trials = 0;
        let res = genet_train(&s, s.space(RangeLevel::Rl1), &cfg, 0);
        assert!(res.promoted.is_empty());
        assert!(res.dist.promoted().is_empty());
        assert_eq!(res.log.iter_rewards.len(), cfg.total_iters());
        // A NaN penalty weight makes every objective NaN.
        cfg.criterion = SelectionCriterion::RobustifyReward { rho: f64::NAN };
        cfg.bo_trials = 2;
        cfg.k_envs = 1;
        cfg.rounds = 1;
        let res = genet_train(&s, s.space(RangeLevel::Rl1), &cfg, 0);
        assert!(res.promoted.is_empty());
        assert_eq!(res.log.iter_rewards.len(), cfg.total_iters());
    }

    #[test]
    fn genet_policy_is_competitive_with_llf_on_narrow_range() {
        // A small smoke-scale Genet run on the narrow LB range should land
        // in LLF's ballpark (the full-scale comparison lives in the
        // integration tests and fig09 bench).
        let s = LbScenario;
        let mut cfg = quick_cfg(SelectionCriterion::GapToBaseline {
            baseline: "llf".into(),
        });
        cfg.rounds = 4;
        cfg.iters_per_round = 10;
        cfg.initial_iters = 10;
        let res = genet_train(&s, s.space(RangeLevel::Rl1), &cfg, 1);
        let test = test_configs(&s.space(RangeLevel::Rl1), 20, 99);
        let policy = res.agent.policy(PolicyMode::Greedy);
        let rl = genet_math::mean(&eval_policy_many(&s, &policy, &test, 7));
        let llf = genet_math::mean(&eval_baseline_many(&s, "llf", &test, 7));
        assert!(
            rl > llf - 0.6,
            "Genet-trained LB should approach LLF: rl {rl} vs llf {llf}"
        );
    }

    #[test]
    fn all_criteria_evaluate_finite() {
        let s = LbScenario;
        let agent = make_agent(&s, 0);
        let policy = agent.policy(PolicyMode::Greedy);
        let cfg = genet_lb::scenario::default_config();
        for criterion in [
            SelectionCriterion::GapToBaseline {
                baseline: "llf".into(),
            },
            SelectionCriterion::GapToOptimum,
            SelectionCriterion::BaselineBadness {
                baseline: "llf".into(),
            },
            SelectionCriterion::RobustifyReward { rho: 0.5 },
            SelectionCriterion::GapToEnsemble {
                baselines: vec!["llf".into(), "rr".into(), "random".into()],
            },
        ] {
            let v = criterion.evaluate(&s, &policy, &cfg, 2, 0);
            assert!(v.is_finite(), "{}: {v}", criterion.label());
        }
    }

    #[test]
    fn ensemble_gap_is_max_of_member_gaps() {
        let s = LbScenario;
        let agent = make_agent(&s, 0);
        let policy = agent.policy(PolicyMode::Greedy);
        let cfg = genet_lb::scenario::default_config();
        let members = ["llf", "wllf", "rr"];
        let individual: Vec<f64> = members
            .iter()
            .map(|b| {
                SelectionCriterion::GapToBaseline {
                    baseline: b.to_string(),
                }
                .evaluate(&s, &policy, &cfg, 3, 5)
            })
            .collect();
        let ensemble = SelectionCriterion::GapToEnsemble {
            baselines: members.iter().map(|b| b.to_string()).collect(),
        }
        .evaluate(&s, &policy, &cfg, 3, 5);
        let max = individual.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (ensemble - max).abs() < 1e-9,
            "{ensemble} vs member gaps {individual:?}"
        );
    }

    #[test]
    fn determinism() {
        let s = LbScenario;
        let cfg = quick_cfg(SelectionCriterion::GapToBaseline {
            baseline: "llf".into(),
        });
        let a = genet_train(&s, s.space(RangeLevel::Rl1), &cfg, 3);
        let b = genet_train(&s, s.space(RangeLevel::Rl1), &cfg, 3);
        assert_eq!(a.log.iter_rewards, b.log.iter_rewards);
        assert_eq!(a.promoted.len(), b.promoted.len());
        for ((ca, va), (cb, vb)) in a.promoted.iter().zip(&b.promoted) {
            assert_eq!(ca, cb);
            assert_eq!(va, vb);
        }
    }
}
