//! The fused gap-eval batch fans its tasks out in `(env index, kind)`
//! order (DESIGN.md §15), so every worker's chunk mixes baseline and policy
//! rollouts. In plan order all baseline rollouts (MPC in ABR, the costly
//! kind) would land in the first chunk and all policy rollouts in the
//! last. A recording `Scenario` wrapper logs which thread ran which kind.

use genet_core::gap::gap_to_baseline;
use genet_env::{Env, EnvConfig, ParamSpace, Policy, Scenario};
use genet_lb::LbScenario;
use rand::rngs::StdRng;
use std::sync::Mutex;
use std::thread::ThreadId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Baseline,
    Policy,
}

/// Wraps a scenario and records `(thread, kind)` for every evaluation.
struct RecordingScenario<'a> {
    inner: &'a dyn Scenario,
    calls: Mutex<Vec<(ThreadId, Kind)>>,
}

impl RecordingScenario<'_> {
    fn record(&self, kind: Kind) {
        let mut calls = self.calls.lock().unwrap_or_else(|e| e.into_inner());
        calls.push((std::thread::current().id(), kind));
    }
}

impl Scenario for RecordingScenario<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn full_space(&self) -> ParamSpace {
        self.inner.full_space()
    }
    fn obs_dim(&self) -> usize {
        self.inner.obs_dim()
    }
    fn action_count(&self) -> usize {
        self.inner.action_count()
    }
    fn make_env(&self, cfg: &EnvConfig, seed: u64) -> Box<dyn Env> {
        self.inner.make_env(cfg, seed)
    }
    fn baseline_names(&self) -> &'static [&'static str] {
        self.inner.baseline_names()
    }
    fn default_baseline(&self) -> &'static str {
        self.inner.default_baseline()
    }
    fn eval_baseline(&self, name: &str, cfg: &EnvConfig, seed: u64) -> f64 {
        self.record(Kind::Baseline);
        self.inner.eval_baseline(name, cfg, seed)
    }
    fn eval_oracle(&self, cfg: &EnvConfig, seed: u64) -> f64 {
        self.inner.eval_oracle(cfg, seed)
    }
    fn eval_policy(&self, policy: &dyn Policy, cfg: &EnvConfig, seed: u64) -> f64 {
        self.record(Kind::Policy);
        self.inner.eval_policy(policy, cfg, seed)
    }
}

#[test]
fn every_gap_eval_worker_runs_baseline_and_policy_tasks() {
    let s = RecordingScenario {
        inner: &LbScenario,
        calls: Mutex::new(Vec::new()),
    };
    let policy = |obs: &[f32], _: &mut StdRng| if obs[1] > obs[2] { 1usize } else { 2usize };
    let cfg = genet_lb::scenario::default_config();
    let k = 4;
    genet_core::evaluate::override_worker_threads(Some(2));
    let gap = gap_to_baseline(&s, &policy, "llf", &cfg, k, 5);
    genet_core::evaluate::override_worker_threads(None);
    assert!(gap.is_finite());

    let calls = s.calls.into_inner().unwrap_or_else(|e| e.into_inner());
    assert_eq!(calls.len(), 2 * k);
    let mut threads: Vec<ThreadId> = Vec::new();
    for (id, _) in &calls {
        if !threads.contains(id) {
            threads.push(*id);
        }
    }
    assert_eq!(threads.len(), 2, "the 2k-task batch should use 2 workers");
    for id in threads {
        for kind in [Kind::Baseline, Kind::Policy] {
            assert!(
                calls.contains(&(id, kind)),
                "a worker ran no {kind:?} task: {calls:?}"
            );
        }
    }
}
