//! The gap-eval plan layer (DESIGN.md §15).
//!
//! Every [`SelectionCriterion`](crate::genet::SelectionCriterion) used by
//! Algorithm 2's sequencing loop decomposes into the same four primitive
//! measurements on `k` paired environments: baseline reward, policy reward,
//! oracle reward and bandwidth non-smoothness. Instead of running each
//! criterion as a sequence of `k`-wide parallel barriers (and, for the
//! ensemble criterion, re-running the `k` policy evaluations once per
//! baseline), this module *compiles* a criterion into a flat, deduplicated
//! task list, fans the whole list through **one** parallel batch (telemetry
//! stage [`GAP_EVAL_STAGE`]), and assembles the criterion value from the
//! per-task results in the exact floating-point order the unfused code
//! used — so every value is bit-identical to the pre-plan implementation.
//!
//! A [`GapEvalCache`] can be attached to memoize task results across calls
//! that hold one fixed policy (e.g. across search strategies probing the
//! same configs and seeds, or across criteria evaluated on the same
//! configs): keys are `(task kind, baseline name, cfg bits, seed)` and
//! lookups go through a `BTreeMap` (deterministic iteration). The cache is
//! transparent: attached or not, warm or cold, the assembled values are
//! bit-identical (`cache_is_transparent` below).

use crate::evaluate::par_map_profiled;
use genet_env::{EnvConfig, Policy, Scenario};
use genet_math::derive_seed;
use genet_telemetry::{counters, Collector, Event};
use std::collections::BTreeMap;

/// Telemetry stage name of the fused gap-eval batch (stage-utilization
/// table + `BENCH_*.json` `stages` section).
pub const GAP_EVAL_STAGE: &str = "gap_eval";

/// One primitive measurement on one environment instance. Baseline names
/// are indexes into the owning plan's name table so tasks stay small and
/// totally ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TaskKind {
    /// `Scenario::eval_baseline` for plan baseline index `.0`.
    Baseline(usize),
    /// `Scenario::eval_policy` for the current policy.
    Policy,
    /// `Scenario::eval_oracle`.
    Oracle,
    /// `Scenario::env_non_smoothness`.
    NonSmoothness,
}

/// Memo key: task kind tag + baseline name + the configuration's exact bit
/// pattern + env seed. Keying on `f64::to_bits` (not `==`) keeps the map
/// total-ordered and treats `-0.0`/`0.0` or NaN payloads as distinct,
/// which is the conservative choice for bit-level reproducibility.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MemoKey {
    kind: u8,
    baseline: String,
    cfg_bits: Vec<u64>,
    seed: u64,
}

fn memo_key(kind: TaskKind, baselines: &[String], cfg: &EnvConfig, seed: u64) -> MemoKey {
    let (tag, name) = match kind {
        TaskKind::Baseline(b) => (0u8, baselines[b].clone()),
        TaskKind::Oracle => (1, String::new()),
        TaskKind::NonSmoothness => (2, String::new()),
        TaskKind::Policy => (3, String::new()),
    };
    MemoKey {
        kind: tag,
        baseline: name,
        cfg_bits: cfg.values().iter().map(|v| v.to_bits()).collect(),
        seed,
    }
}

/// Deterministic memo cache for gap-eval tasks, shared across
/// [`SelectionCriterion`](crate::genet::SelectionCriterion) evaluations.
///
/// Policy entries are keyed without the policy, so one cache serves one
/// fixed policy: start a new cache whenever the policy changes.
#[derive(Debug, Default, Clone)]
pub struct GapEvalCache {
    entries: BTreeMap<MemoKey, f64>,
    hits: u64,
    misses: u64,
}

impl GapEvalCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime totals of `(cache hits, cache misses)` across every plan
    /// executed against this cache.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// A compiled evaluation plan: one configuration, `k` derived env seeds,
/// and the deduplicated task list covering every primitive the requesting
/// criterion needs. Policy evaluations are emitted once no matter how many
/// baselines reference them — the ensemble criterion's `(B+1)·k` width
/// instead of `2·B·k` evaluations.
struct EvalPlan<'a> {
    cfg: &'a EnvConfig,
    k: usize,
    /// Baseline name table; `TaskKind::Baseline(i)` refers into it.
    baselines: Vec<String>,
    /// `(kind, env index)` — unique by construction.
    tasks: Vec<(TaskKind, usize)>,
}

impl<'a> EvalPlan<'a> {
    fn new(cfg: &'a EnvConfig, k: usize) -> Self {
        assert!(k >= 1);
        Self {
            cfg,
            k,
            baselines: Vec::new(),
            tasks: Vec::new(),
        }
    }

    fn add_baseline(&mut self, name: &str) -> usize {
        let idx = match self.baselines.iter().position(|b| b == name) {
            Some(i) => return i, // already planned — dedup
            None => {
                self.baselines.push(name.to_string());
                self.baselines.len() - 1
            }
        };
        for i in 0..self.k {
            self.tasks.push((TaskKind::Baseline(idx), i));
        }
        idx
    }

    fn add_kind_once(&mut self, kind: TaskKind) {
        if self.tasks.iter().any(|(t, _)| *t == kind) {
            return;
        }
        for i in 0..self.k {
            self.tasks.push((kind, i));
        }
    }
}

/// Results of an executed plan, addressable by `(kind, env index)`.
struct PlanValues {
    values: BTreeMap<(TaskKind, usize), f64>,
}

impl PlanValues {
    fn get(&self, kind: TaskKind, i: usize) -> f64 {
        self.values[&(kind, i)]
    }
}

/// Executes a plan: answers memoized tasks from `cache`, fans every
/// remaining task through one `par_map_profiled` batch (telemetry stage
/// `gap_eval`) in environment order, feeds fresh results back into the
/// cache, and bumps the `gap_cache_hit` / `gap_cache_miss` counters. Task
/// results depend only on `(kind, cfg, seed)` — never on batch composition
/// — so caching, fusion, task order and the worker count are all invisible
/// in the output bits.
fn execute<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    plan: &EvalPlan<'_>,
    seed: u64,
    mut cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> PlanValues {
    let mut values = BTreeMap::new();
    let mut todo: Vec<(TaskKind, usize)> = Vec::with_capacity(plan.tasks.len());
    let mut hits = 0u64;
    for &(kind, i) in &plan.tasks {
        let env_seed = derive_seed(seed, i as u64);
        match cache.as_ref().and_then(|c| {
            c.entries
                .get(&memo_key(kind, &plan.baselines, plan.cfg, env_seed))
                .copied()
        }) {
            Some(v) => {
                hits += 1;
                values.insert((kind, i), v);
            }
            None => todo.push((kind, i)),
        }
    }
    // Fan out in `(env index, kind)` order, not plan order: plan order puts
    // every baseline rollout (MPC is expensive) in the first chunks and
    // every policy rollout in the last, so one worker would carry most of
    // the batch. Values are keyed by `(kind, i)`, so no result bit moves.
    todo.sort_by_key(|&(kind, i)| (i, kind));
    let (fresh, profile) = par_map_profiled(
        todo.len(),
        |j| {
            let (kind, i) = todo[j];
            let env_seed = derive_seed(seed, i as u64);
            match kind {
                TaskKind::Baseline(b) => {
                    scenario.eval_baseline(&plan.baselines[b], plan.cfg, env_seed)
                }
                TaskKind::Policy => scenario.eval_policy(policy, plan.cfg, env_seed),
                TaskKind::Oracle => scenario.eval_oracle(plan.cfg, env_seed),
                TaskKind::NonSmoothness => scenario.env_non_smoothness(plan.cfg, env_seed),
            }
        },
        collector.enabled(),
    );
    for (&(kind, i), &v) in todo.iter().zip(fresh.iter()) {
        values.insert((kind, i), v);
        if let Some(c) = cache.as_deref_mut() {
            let env_seed = derive_seed(seed, i as u64);
            c.entries
                .insert(memo_key(kind, &plan.baselines, plan.cfg, env_seed), v);
        }
    }
    if let Some(c) = cache.as_deref_mut() {
        c.hits += hits;
        c.misses += todo.len() as u64;
    }
    if collector.enabled() {
        collector.counter_add(counters::GAP_CACHE_HIT, hits);
        collector.counter_add(counters::GAP_CACHE_MISS, todo.len() as u64);
        if !todo.is_empty() {
            collector.record(&Event::par_stage(
                GAP_EVAL_STAGE,
                "",
                todo.len() as u64,
                profile.workers as u64,
                profile.worker_busy,
                profile.worker_items,
            ));
        }
    }
    PlanValues { values }
}

/// Expected gap-to-baseline over `k` paired environments, through the plan
/// layer: one fused `2k`-wide batch, optional memoization, bit-identical to
/// the historical `par_map(k, |i| baseline_i − policy_i)` implementation.
pub fn gap_to_baseline_planned<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    baseline: &str,
    cfg: &EnvConfig,
    k: usize,
    seed: u64,
    cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> f64 {
    let mut plan = EvalPlan::new(cfg, k);
    let b = plan.add_baseline(baseline);
    plan.add_kind_once(TaskKind::Policy);
    let v = execute(scenario, policy, &plan, seed, cache, collector);
    let gaps: Vec<f64> = (0..k)
        .map(|i| v.get(TaskKind::Baseline(b), i) - v.get(TaskKind::Policy, i))
        .collect();
    genet_math::mean(&gaps)
}

/// Gap to the ground-truth oracle, fused and memoizable.
pub fn gap_to_optimum_planned<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    cfg: &EnvConfig,
    k: usize,
    seed: u64,
    cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> f64 {
    let mut plan = EvalPlan::new(cfg, k);
    plan.add_kind_once(TaskKind::Oracle);
    plan.add_kind_once(TaskKind::Policy);
    let v = execute(scenario, policy, &plan, seed, cache, collector);
    let gaps: Vec<f64> = (0..k)
        .map(|i| v.get(TaskKind::Oracle, i) - v.get(TaskKind::Policy, i))
        .collect();
    genet_math::mean(&gaps)
}

/// Negated mean baseline reward (CL2's "hard environment" score), fused and
/// memoizable. Needs no policy, so any `Policy` stand-in works; the plan
/// contains only baseline tasks.
pub fn baseline_badness_planned(
    scenario: &dyn Scenario,
    baseline: &str,
    cfg: &EnvConfig,
    k: usize,
    seed: u64,
    cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> f64 {
    let mut plan = EvalPlan::new(cfg, k);
    let b = plan.add_baseline(baseline);
    let v = execute(scenario, &never_policy, &plan, seed, cache, collector);
    let rewards: Vec<f64> = (0..k).map(|i| v.get(TaskKind::Baseline(b), i)).collect();
    -genet_math::mean(&rewards)
}

/// The Figure-19 Robustify objective `gap_to_optimum − ρ·non_smoothness`,
/// with the historical *two* parallel barriers (gap batch, then
/// non-smoothness batch) collapsed into one fused `3k`-wide batch.
pub fn robustify_reward_planned<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    rho: f64,
    cfg: &EnvConfig,
    k: usize,
    seed: u64,
    cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> f64 {
    let mut plan = EvalPlan::new(cfg, k);
    plan.add_kind_once(TaskKind::Oracle);
    plan.add_kind_once(TaskKind::Policy);
    plan.add_kind_once(TaskKind::NonSmoothness);
    let v = execute(scenario, policy, &plan, seed, cache, collector);
    let gaps: Vec<f64> = (0..k)
        .map(|i| v.get(TaskKind::Oracle, i) - v.get(TaskKind::Policy, i))
        .collect();
    let ns: Vec<f64> = (0..k).map(|i| v.get(TaskKind::NonSmoothness, i)).collect();
    genet_math::mean(&gaps) - rho * genet_math::mean(&ns)
}

/// §7's ensemble criterion: the maximum over member baselines of the mean
/// paired gap. The plan runs each member's `k` baseline evaluations but the
/// `k` policy evaluations exactly **once** — `(B+1)·k` tasks where the
/// unfused implementation ran `2·B·k` evaluations (`gap_to_baseline` per
/// member, re-measuring the policy every time).
pub fn gap_to_ensemble_planned<P: Policy + Sync>(
    scenario: &dyn Scenario,
    policy: &P,
    baselines: &[String],
    cfg: &EnvConfig,
    k: usize,
    seed: u64,
    cache: Option<&mut GapEvalCache>,
    collector: &dyn Collector,
) -> f64 {
    assert!(
        !baselines.is_empty(),
        "ensemble needs at least one baseline"
    );
    let mut plan = EvalPlan::new(cfg, k);
    let idx: Vec<usize> = baselines.iter().map(|b| plan.add_baseline(b)).collect();
    plan.add_kind_once(TaskKind::Policy);
    let v = execute(scenario, policy, &plan, seed, cache, collector);
    idx.iter()
        .map(|&b| {
            let gaps: Vec<f64> = (0..k)
                .map(|i| v.get(TaskKind::Baseline(b), i) - v.get(TaskKind::Policy, i))
                .collect();
            genet_math::mean(&gaps)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Stand-in policy for plans that contain no policy tasks. Unreachable by
/// construction (nothing in such a plan dispatches `TaskKind::Policy`).
fn never_policy(_obs: &[f32], _rng: &mut rand::rngs::StdRng) -> usize {
    debug_assert!(false, "policy-free plan dispatched a policy task");
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_lb::LbScenario;
    use genet_telemetry::noop;
    use rand::rngs::StdRng;

    fn probe_policy() -> impl Policy + Sync {
        |obs: &[f32], _: &mut StdRng| if obs[1] > obs[2] { 1usize } else { 2usize }
    }

    #[test]
    fn cache_is_transparent() {
        // The same criterion evaluated (a) with no cache, (b) with a cold
        // cache, (c) again with the now-warm cache must agree to the bit.
        let s = LbScenario;
        let p = probe_policy();
        let cfg = genet_lb::scenario::default_config();
        let mut cache = GapEvalCache::new();
        let no_cache = gap_to_baseline_planned(&s, &p, "llf", &cfg, 4, 9, None, noop());
        let cold = gap_to_baseline_planned(&s, &p, "llf", &cfg, 4, 9, Some(&mut cache), noop());
        let warm = gap_to_baseline_planned(&s, &p, "llf", &cfg, 4, 9, Some(&mut cache), noop());
        assert_eq!(no_cache.to_bits(), cold.to_bits());
        assert_eq!(no_cache.to_bits(), warm.to_bits());
        let (hits, misses) = cache.hit_miss();
        assert_eq!(misses, 8, "cold pass must run 2k tasks");
        assert_eq!(hits, 8, "warm pass must answer all 2k tasks from cache");
    }

    #[test]
    fn planned_values_match_unfused_reference_bitwise() {
        // Reference: the pre-plan serial implementations, reproduced inline
        // (per-pair difference, then `genet_math::mean`), so the plan layer
        // is pinned to the historical FP operation order — not to itself.
        let s = LbScenario;
        let p = probe_policy();
        let cfg = genet_lb::scenario::default_config();
        let (k, seed) = (3usize, 17u64);
        let legacy_gap: Vec<f64> = (0..k)
            .map(|i| {
                let es = derive_seed(seed, i as u64);
                s.eval_baseline("llf", &cfg, es) - s.eval_policy(&p, &cfg, es)
            })
            .collect();
        assert_eq!(
            genet_math::mean(&legacy_gap).to_bits(),
            gap_to_baseline_planned(&s, &p, "llf", &cfg, k, seed, None, noop()).to_bits()
        );
        let legacy_opt: Vec<f64> = (0..k)
            .map(|i| {
                let es = derive_seed(seed, i as u64);
                s.eval_oracle(&cfg, es) - s.eval_policy(&p, &cfg, es)
            })
            .collect();
        assert_eq!(
            genet_math::mean(&legacy_opt).to_bits(),
            gap_to_optimum_planned(&s, &p, &cfg, k, seed, None, noop()).to_bits()
        );
        let legacy_bad: Vec<f64> = (0..k)
            .map(|i| s.eval_baseline("llf", &cfg, derive_seed(seed, i as u64)))
            .collect();
        assert_eq!(
            (-genet_math::mean(&legacy_bad)).to_bits(),
            baseline_badness_planned(&s, "llf", &cfg, k, seed, None, noop()).to_bits()
        );
        // Ensemble: legacy = max over members of gap_to_baseline.
        let baselines = vec!["llf".to_string(), "rr".to_string()];
        let legacy_ens = baselines
            .iter()
            .map(|b| {
                let gaps: Vec<f64> = (0..k)
                    .map(|i| {
                        let es = derive_seed(seed, i as u64);
                        s.eval_baseline(b, &cfg, es) - s.eval_policy(&p, &cfg, es)
                    })
                    .collect();
                genet_math::mean(&gaps)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            legacy_ens.to_bits(),
            gap_to_ensemble_planned(&s, &p, &baselines, &cfg, k, seed, None, noop()).to_bits()
        );
    }

    #[test]
    fn ensemble_width_is_b_plus_one_k() {
        let s = LbScenario;
        let p = probe_policy();
        let cfg = genet_lb::scenario::default_config();
        let mut cache = GapEvalCache::new();
        let baselines = vec!["llf".to_string(), "rr".to_string(), "random".to_string()];
        let _ = gap_to_ensemble_planned(&s, &p, &baselines, &cfg, 5, 2, Some(&mut cache), noop());
        let (_, misses) = cache.hit_miss();
        assert_eq!(misses, (3 + 1) * 5, "(B+1)·k tasks, not 2·B·k");
        // Duplicate member names collapse entirely.
        let mut cache2 = GapEvalCache::new();
        let dup = vec!["llf".to_string(), "llf".to_string()];
        let _ = gap_to_ensemble_planned(&s, &p, &dup, &cfg, 5, 2, Some(&mut cache2), noop());
        assert_eq!(cache2.hit_miss().1, 2 * 5);
    }

    #[test]
    fn memo_key_distinguishes_kind_cfg_and_seed() {
        let space = LbScenario.full_space();
        let a = space.midpoint();
        let baselines = vec!["llf".to_string()];
        let k1 = memo_key(TaskKind::Baseline(0), &baselines, &a, 1);
        let k2 = memo_key(TaskKind::Policy, &baselines, &a, 1);
        let k3 = memo_key(TaskKind::Baseline(0), &baselines, &a, 2);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }
}
