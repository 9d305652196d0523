//! Parallel evaluation — the `Test(policy, ConfigDistrib, NumTests)` API of
//! the paper's Figure 8.
//!
//! Evaluation dominates wall-clock in every experiment (hundreds of test
//! environments per figure), so it fans out over threads through
//! `genet-par`. Everything stays deterministic: work items carry their own
//! derived seeds and results return in input order.

use genet_env::{EnvConfig, Policy, Scenario};
use genet_math::derive_seed;
use genet_telemetry::{counters, Collector, Event};

// The engine itself (worker-count resolution and the deterministic fan-out)
// lives in `genet-par` so that `genet-rl` can use it for the PPO update
// stage without a dependency cycle. These re-exports keep every
// pre-existing `genet_core::evaluate::*` path working.
pub use genet_par::{
    configured_threads, override_worker_threads, par_map, par_map_profiled, par_map_sharded,
    worker_count, BatchProfile,
};

/// [`par_map`] with an attached telemetry collector: emits one
/// [`Event::ParStage`] per call, stage `eval/<label>` (batch size, worker
/// count, per-worker busy time/items, imbalance), plus the
/// evaluated-environment counter. Per-worker busy times are accumulated in
/// worker-local buffers and merged in worker-index order after the scope
/// joins, so the results — and the event — are deterministic even though
/// the workers race.
pub fn par_map_with<T, F>(n: usize, f: F, collector: &dyn Collector, label: &str) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let enabled = collector.enabled();
    let (results, profile) = par_map_profiled(n, f, enabled);
    if enabled && n > 0 {
        collector.counter_add(counters::EVAL_ENVS, n as u64);
        collector.record(&Event::par_stage(
            format!("eval/{label}"),
            "",
            n as u64,
            profile.workers as u64,
            profile.worker_busy,
            profile.worker_items,
        ));
    }
    results
}

/// Generates `n` test configurations from a space, deterministically.
pub fn test_configs(space: &genet_env::ParamSpace, n: usize, seed: u64) -> Vec<EnvConfig> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0x7E57));
    (0..n).map(|_| space.sample(&mut rng)).collect()
}

/// Evaluates a policy on each `(config, derived seed)` pair in parallel;
/// returns one mean-reward per config.
pub fn eval_policy_many<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    configs: &[EnvConfig],
    seed: u64,
) -> Vec<f64> {
    eval_policy_many_with(scenario, policy, configs, seed, genet_telemetry::noop())
}

/// [`eval_policy_many`] reporting its `eval/policy` [`Event::ParStage`] to `collector`.
pub fn eval_policy_many_with<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    configs: &[EnvConfig],
    seed: u64,
    collector: &dyn Collector,
) -> Vec<f64> {
    par_map_with(
        configs.len(),
        |i| scenario.eval_policy(policy, &configs[i], derive_seed(seed, i as u64)),
        collector,
        "policy",
    )
}

/// Evaluates a rule-based baseline on the same `(config, seed)` pairs.
pub fn eval_baseline_many(
    scenario: &dyn Scenario,
    baseline: &str,
    configs: &[EnvConfig],
    seed: u64,
) -> Vec<f64> {
    eval_baseline_many_with(scenario, baseline, configs, seed, genet_telemetry::noop())
}

/// [`eval_baseline_many`] reporting its `eval/<baseline>` [`Event::ParStage`] to `collector`.
pub fn eval_baseline_many_with(
    scenario: &dyn Scenario,
    baseline: &str,
    configs: &[EnvConfig],
    seed: u64,
    collector: &dyn Collector,
) -> Vec<f64> {
    par_map_with(
        configs.len(),
        |i| scenario.eval_baseline(baseline, &configs[i], derive_seed(seed, i as u64)),
        collector,
        baseline,
    )
}

/// Evaluates the oracle on the same `(config, seed)` pairs.
pub fn eval_oracle_many(scenario: &dyn Scenario, configs: &[EnvConfig], seed: u64) -> Vec<f64> {
    eval_oracle_many_with(scenario, configs, seed, genet_telemetry::noop())
}

/// [`eval_oracle_many`] reporting its `eval/oracle` [`Event::ParStage`] to `collector`.
pub fn eval_oracle_many_with(
    scenario: &dyn Scenario,
    configs: &[EnvConfig],
    seed: u64,
    collector: &dyn Collector,
) -> Vec<f64> {
    par_map_with(
        configs.len(),
        |i| scenario.eval_oracle(&configs[i], derive_seed(seed, i as u64)),
        collector,
        "oracle",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_lb::LbScenario;

    #[test]
    fn par_map_preserves_order_and_coverage() {
        let out = par_map(257, |i| i * 2);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<usize> = par_map(0, |i| i);
        assert!(out.is_empty());
    }

    /// A result type with no `Default`/`Clone` — the relaxed `T: Send`
    /// bound must accept it.
    struct NoDefault(usize);

    #[test]
    fn par_map_accepts_non_default_non_clone_types() {
        let out = par_map(100, NoDefault);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.0, i);
        }
    }

    #[test]
    fn par_map_profiled_reports_workers() {
        let (out, profile) = par_map_profiled(64, |i| i + 1, false);
        assert_eq!(out.len(), 64);
        assert!(profile.workers >= 1 && profile.workers <= 64);
        // Untimed batches read no clock.
        assert_eq!(profile.busy_nanos, 0);
        let (empty, profile) = par_map_profiled(0, |i| i, true);
        assert!(empty.is_empty());
        assert_eq!(profile.workers, 0);
    }

    #[test]
    fn worker_count_is_bounded() {
        // Whatever the environment/hardware dictate, the count stays within
        // [1, n].
        for n in [1usize, 2, 7, 1000] {
            let w = worker_count(n);
            assert!(w >= 1 && w <= n, "worker_count({n}) = {w}");
        }
    }

    #[test]
    fn parallel_eval_matches_sequential() {
        let s = LbScenario;
        let configs = test_configs(&s.full_space(), 8, 1);
        let par = eval_baseline_many(&s, "llf", &configs, 5);
        let seq: Vec<f64> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| s.eval_baseline("llf", c, derive_seed(5, i as u64)))
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn test_configs_deterministic() {
        let s = LbScenario;
        let a = test_configs(&s.full_space(), 5, 9);
        let b = test_configs(&s.full_space(), 5, 9);
        assert_eq!(a, b);
        let c = test_configs(&s.full_space(), 5, 10);
        assert_ne!(a, c);
    }
}
