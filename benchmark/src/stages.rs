//! The four stages every round runs — train, test, search, serve — sized
//! per workload, with the output checks that run on the first round.
//!
//! Every workload runs every stage, so every end-to-end metric is measured
//! on every workload; the workload decides which stage carries the load
//! (its paper-scale size) and which run as light probes.

use crate::checks::{self, Check};
use genet::bo::RandomSearch;
use genet::math::{derive_seed, mean};
use genet::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// Where the trained policies live; `regen-policies` rewrites them.
pub const POLICY_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/policies");

/// Seed of every timed input whose cost follows it: the Genet runs, the
/// held-out configurations with their evaluation seeds, and the searches.
/// Their cost depends on which environments they meet — a multi-flow CC
/// episode's cost grows with a bandwidth drawn over three decades and with
/// its trace, and Genet trains mostly on the few configurations it
/// promotes — so across seeds `train_s`, `test_s` and `search_s` spread by
/// 17–30%, wider than any useful bound. From a fixed seed they measure the
/// same work every run. `--seed` varies the serving sessions (whose cost
/// is level across seeds) and what the output checks sample.
const WORK_SEED: u64 = 2022;
/// Seed and Algorithm-1 iterations `regen-policies` trains the committed
/// policies with.
const POLICY_SEED: u64 = 2022;
const POLICY_ITERATIONS: usize = 20;
/// Largest batch a serving shard stages at once (`ServeConfig` default).
const MAX_BATCH: usize = 512;
/// Ticks of the serving schedule the scalar-path replay re-serves.
const REPLAY_TICKS: usize = 100;
/// Session lifetimes of an admission wave, in ticks (mean 100).
const WAVE_LIFE: (u32, u32) = (50, 150);
/// Lifetimes of the population admitted before the first tick.
const INITIAL_LIFE: (u32, u32) = (1, 100);
/// Timed repetitions of each per-row kernel measurement.
const KERNEL_REPS: usize = 200;

/// What one workload runs per round.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Paper-default curriculum (`GenetConfig::defaults_for`) or a light
    /// probe of the same loop.
    pub paper_train: bool,
    /// Held-out configurations per tested scenario: ABR, CC, LB, multi-flow CC.
    pub test_configs: [usize; 4],
    /// Trials per search strategy and scenario.
    pub search_trials: usize,
    /// Environments per gap estimate.
    pub search_k: usize,
    /// Live sessions per serving flavor.
    pub serve_live: usize,
    /// Ticks per serving flavor.
    pub serve_ticks: usize,
}

impl Mix {
    pub fn for_workload(name: &str) -> Option<Mix> {
        let light = Mix {
            paper_train: false,
            test_configs: [10, 10, 10, 4],
            search_trials: 16,
            search_k: 4,
            serve_live: 2048,
            serve_ticks: 1020,
        };
        match name {
            "train" => Some(Mix {
                paper_train: true,
                ..light
            }),
            "evaluate" => Some(Mix {
                test_configs: [100, 100, 100, 40],
                search_trials: 15,
                search_k: 10,
                ..light
            }),
            "serve" => Some(Mix {
                serve_live: 20_000,
                serve_ticks: 340,
                ..light
            }),
            _ => None,
        }
    }
}

/// The trained policies every stage but training uses.
pub struct Policies {
    pub abr: PpoAgent,
    pub cc: PpoAgent,
    pub lb: PpoAgent,
}

impl Policies {
    pub fn load() -> Result<Self, String> {
        let load = |s: &dyn Scenario| -> Result<PpoAgent, String> {
            let mut agent = make_agent(s, 0);
            let path = Path::new(POLICY_DIR).join(format!("{}.model", s.name()));
            agent
                .load(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(agent)
        };
        Ok(Self {
            abr: load(&AbrScenario::new())?,
            cc: load(&CcScenario::new())?,
            lb: load(&LbScenario)?,
        })
    }

    /// Trains the three policies from [`POLICY_SEED`] (Algorithm 1 over the
    /// full space, [`POLICY_ITERATIONS`] iterations) and writes them to
    /// [`POLICY_DIR`].
    pub fn regenerate() -> Result<(), String> {
        let (seed, iterations) = (POLICY_SEED, POLICY_ITERATIONS);
        let scenarios: [Box<dyn Scenario>; 3] = [
            Box::new(AbrScenario::new()),
            Box::new(CcScenario::new()),
            Box::new(LbScenario),
        ];
        for s in &scenarios {
            let s = s.as_ref();
            let mut agent = make_agent(s, derive_seed(seed, 1));
            let source = UniformSource(s.full_space());
            let log = train_rl(
                &mut agent,
                s,
                &source,
                TrainConfig::default(),
                iterations,
                derive_seed(seed, 2),
            );
            let path = Path::new(POLICY_DIR).join(format!("{}.model", s.name()));
            agent
                .save(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "{}: {iterations} iterations, last reward {:.3} -> {}",
                s.name(),
                log.iter_rewards.last().copied().unwrap_or(f64::NAN),
                path.display()
            );
        }
        Ok(())
    }
}

/// One held-out test set: a scenario, the policy under test and its
/// seeded configurations.
struct TestSet {
    scenario: Box<dyn Scenario>,
    policy: PpoPolicy,
    configs: Vec<EnvConfig>,
    seed: u64,
    oracle: bool,
}

/// Everything a test set's evaluation returned.
struct TestValues {
    policy: Vec<f64>,
    baselines: Vec<(&'static str, Vec<f64>)>,
    oracle: Option<Vec<f64>>,
}

struct SearchSet {
    scenario: Box<dyn Scenario>,
    policy: PpoPolicy,
    seed: u64,
}

/// One search trial, kept for the gap recomputation check.
struct Trial {
    set: usize,
    config: EnvConfig,
    seed: u64,
    gap: f64,
}

struct TrainSet {
    scenario: Box<dyn Scenario>,
    cfg: GenetConfig,
    seed: u64,
    held_out: Vec<EnvConfig>,
}

/// One serving flavor and its engine seed.
struct ServeFlavor {
    kind: WorkloadKind,
    seed: u64,
}

/// Fresh per-round state, built outside the timed part.
pub struct Prepared<'p> {
    agents: Vec<PpoAgent>,
    engines: Vec<ServeEngine<'p, SyntheticSource>>,
}

/// Operations a stage attempted, and how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct RoundOut {
    pub traced: bool,
    pub wall_s: f64,
    pub train_s: f64,
    pub test_s: f64,
    pub search_s: f64,
    pub serve_s: f64,
    /// Decisions the engines served.
    pub decisions: u64,
    pub tick_ns: Vec<u64>,
    /// PPO iterations of the Genet runs.
    pub iterations: Ops,
    /// Test episodes, plus 2k planned episodes per search trial.
    pub episodes: Ops,
    /// Decisions owed: the live sessions counted before each tick.
    pub decision_ops: Ops,
    /// Hash of every value the round produced; rounds repeat exactly.
    pub fingerprint: u64,
    /// Layer figures the stages measure themselves (traced rounds only).
    pub serve_forward_s: f64,
    pub serve_batches: u64,
    pub serve_retained: u64,
}

/// Outputs of the first round, checked after the timed part.
#[derive(Default)]
struct Kept {
    fingerprint: u64,
    train: Vec<GenetResult>,
    test: Vec<TestValues>,
    trials: Vec<Trial>,
    serve: Vec<ServeKept>,
}

struct ServeKept {
    counted: u64,
    stats: ServeStats,
    digests: Vec<(u64, u64, u64)>,
    prefix_stats: ServeStats,
    prefix_digests: Vec<(u64, u64, u64)>,
}

pub struct Bench<'p> {
    mix: Mix,
    policies: &'p Policies,
    train: Vec<TrainSet>,
    test: Vec<TestSet>,
    search: Vec<SearchSet>,
    serve: Vec<ServeFlavor>,
    kept: Option<Kept>,
    /// The run's `--seed`: picks what the output checks sample.
    check_seed: u64,
}

/// FNV-1a over 64-bit words: the round fingerprint.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
    fn floats(&mut self, v: &[f64]) {
        for x in v {
            self.word(x.to_bits());
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl<'p> Bench<'p> {
    /// Generates every seeded input of the workload.
    pub fn new(mix: Mix, policies: &'p Policies, seed: u64) -> Self {
        let greedy = |a: &PpoAgent| a.policy(PolicyMode::Greedy);
        let train = [
            Box::new(AbrScenario::new()) as Box<dyn Scenario>,
            Box::new(CcScenario::new()),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, scenario)| {
            let mut cfg = GenetConfig::defaults_for(scenario.as_ref());
            if !mix.paper_train {
                cfg.initial_iters = 9;
                cfg.rounds = 3;
                cfg.iters_per_round = 9;
                cfg.bo_trials = 3;
                cfg.k_envs = 2;
            }
            let held_out = test_configs(&scenario.full_space(), 50, derive_seed(seed, 0x4E1D));
            TrainSet {
                scenario,
                cfg,
                seed: derive_seed(WORK_SEED, 0x7A1 + i as u64),
                held_out,
            }
        })
        .collect();
        let contenders: [(Box<dyn Scenario>, &PpoAgent, bool); 4] = [
            (Box::new(AbrScenario::new()), &policies.abr, true),
            (Box::new(CcScenario::new()), &policies.cc, true),
            // LB's rollout oracle is O(jobs²) per episode and no figure
            // evaluates it at this scale; see the README.
            (Box::new(LbScenario), &policies.lb, false),
            (Box::new(CcMultiFlowScenario::new()), &policies.cc, true),
        ];
        let test = contenders
            .into_iter()
            .zip(mix.test_configs)
            .enumerate()
            .map(|(i, ((scenario, agent, oracle), n))| {
                let configs = test_configs(
                    &scenario.full_space(),
                    n,
                    derive_seed(WORK_SEED, 0x7E57 + i as u64),
                );
                TestSet {
                    policy: greedy(agent),
                    configs,
                    seed: derive_seed(WORK_SEED, 0xE7A1 + i as u64),
                    oracle,
                    scenario,
                }
            })
            .collect();
        let searched: [(Box<dyn Scenario>, &PpoAgent); 3] = [
            (Box::new(AbrScenario::new()), &policies.abr),
            (Box::new(CcScenario::new()), &policies.cc),
            (Box::new(LbScenario), &policies.lb),
        ];
        let search = searched
            .into_iter()
            .enumerate()
            .map(|(i, (scenario, agent))| SearchSet {
                scenario,
                policy: greedy(agent),
                seed: derive_seed(WORK_SEED, 0x5EA + i as u64),
            })
            .collect();
        let serve = [
            WorkloadKind::AbrPlayer,
            WorkloadKind::CcFlow,
            WorkloadKind::LbRouter,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| ServeFlavor {
            kind,
            seed: derive_seed(seed, 0x5E7E + i as u64),
        })
        .collect();
        Self {
            mix,
            policies,
            train,
            test,
            search,
            serve,
            kept: None,
            check_seed: seed,
        }
    }

    fn serve_policy(&self, kind: WorkloadKind) -> FrozenPolicy<'p> {
        let policies: &'p Policies = self.policies;
        match kind {
            WorkloadKind::AbrPlayer => policies.abr.frozen(),
            WorkloadKind::CcFlow => policies.cc.frozen(),
            WorkloadKind::LbRouter => policies.lb.frozen(),
        }
    }

    fn engine(
        &self,
        flavor: &ServeFlavor,
        batched: bool,
        timed: bool,
    ) -> ServeEngine<'p, SyntheticSource> {
        let cfg = ServeConfig {
            batched,
            timed,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(
            self.serve_policy(flavor.kind),
            SyntheticSource::new(flavor.kind),
            cfg,
            flavor.seed,
        );
        engine.admit(self.mix.serve_live, INITIAL_LIFE.0, INITIAL_LIFE.1);
        engine
    }

    /// Builds the agents and engines one round consumes.
    pub fn prepare(&self, traced: bool) -> Prepared<'p> {
        Prepared {
            agents: self
                .train
                .iter()
                .map(|t| make_agent(t.scenario.as_ref(), derive_seed(t.seed, 0x6E7)))
                .collect(),
            engines: self
                .serve
                .iter()
                .map(|f| self.engine(f, true, traced))
                .collect(),
        }
    }

    /// Runs one round of every stage. `collector` is the traced run's sink
    /// on traced rounds and `noop()` otherwise.
    pub fn round(&mut self, prepared: Prepared<'p>, collector: &dyn Collector) -> RoundOut {
        let round_start = Instant::now();
        let keep = self.kept.is_none();
        let mut kept = Kept::default();
        let mut out = RoundOut {
            traced: collector.enabled(),
            ..RoundOut::default()
        };
        let mut fp = Fnv::new();

        // Train: the Genet loop, ABR against MPC, then CC against BBR.
        for (set, agent) in self.train.iter().zip(prepared.agents) {
            let s = set.scenario.as_ref();
            let t = Instant::now();
            let result = {
                let _span = collector.span(format!("genet_train/{}", s.name()));
                genet_train_instrumented(
                    s,
                    s.full_space(),
                    &set.cfg,
                    agent,
                    set.seed,
                    |_, _| {},
                    collector,
                )
            };
            out.train_s += secs(t);
            let expected = set.cfg.total_iters();
            out.iterations.attempted += expected as u64;
            out.iterations.failed += checks::failed_iterations(&result.log.iter_rewards, expected);
            fp.floats(&result.log.iter_rewards);
            for (_, v) in &result.promoted {
                fp.floats(&[*v]);
            }
            if keep {
                kept.train.push(result);
            }
        }

        // Test: policy, every baseline and the oracle on held-out configs.
        let t = Instant::now();
        for set in &self.test {
            let s = set.scenario.as_ref();
            let name = s.name();
            let _span = collector.span(format!("test/{name}"));
            let policy = {
                let _span = collector.span(format!("test/{name}/policy"));
                eval_policy_many_with(s, &set.policy, &set.configs, set.seed, collector)
            };
            let mut baselines = Vec::new();
            for &b in s.baseline_names() {
                let _span = collector.span(format!("test/{name}/baselines/{b}"));
                baselines.push((
                    b,
                    eval_baseline_many_with(s, b, &set.configs, set.seed, collector),
                ));
            }
            let oracle = set.oracle.then(|| {
                let _span = collector.span(format!("test/{name}/oracle"));
                eval_oracle_many_with(s, &set.configs, set.seed, collector)
            });
            for v in std::iter::once(&policy)
                .chain(baselines.iter().map(|(_, v)| v))
                .chain(&oracle)
            {
                out.episodes.attempted += v.len() as u64;
                out.episodes.failed += checks::non_finite(v);
                fp.floats(v);
            }
            if keep {
                kept.test.push(TestValues {
                    policy,
                    baselines,
                    oracle,
                });
            }
        }
        out.test_s = secs(t);

        // Search: random search, then BO, sharing one gap-eval cache per
        // scenario as fig20 does. Both strategies draw from the same
        // stream, so BO's random initial probes repeat random search's
        // first proposals and are answered from the cache.
        let t = Instant::now();
        let (trials, k) = (self.mix.search_trials, self.mix.search_k);
        for (si, set) in self.search.iter().enumerate() {
            let s = set.scenario.as_ref();
            let name = s.name();
            let criterion = SelectionCriterion::GapToBaseline {
                baseline: s.default_baseline().to_string(),
            };
            let mut cache = GapEvalCache::new();
            let strategies: [(&str, Box<dyn Proposer>); 2] = [
                ("random", Box::new(RandomSearch::new(s.full_space()))),
                ("bo", Box::new(BayesOpt::new(s.full_space()))),
            ];
            for (label, mut proposer) in strategies {
                let mut rng = StdRng::seed_from_u64(set.seed);
                for trial in 0..trials {
                    let config = {
                        let _span = collector.span(format!("search/{name}/{label}/propose"));
                        proposer.propose_with(&mut rng, collector)
                    };
                    let seed = derive_seed(set.seed, trial as u64);
                    let gap = {
                        let _span = collector.span(format!("search/{name}/{label}/evaluate"));
                        criterion.evaluate_with(
                            s,
                            &set.policy,
                            &config,
                            k,
                            seed,
                            Some(&mut cache),
                            collector,
                        )
                    };
                    fp.floats(&[gap]);
                    out.episodes.attempted += 2 * k as u64;
                    out.episodes.failed += 2 * k as u64 * checks::non_finite(&[gap]);
                    if keep && (trial == 0 || trial + 1 == trials) {
                        kept.trials.push(Trial {
                            set: si,
                            config: config.clone(),
                            seed,
                            gap,
                        });
                    }
                    proposer.observe(config, gap);
                }
            }
        }
        out.search_s = secs(t);

        // Serve: a fixed admission wave per tick, one caller waiting for
        // each tick.
        let wave = self.mix.serve_live / 100;
        for (flavor, mut engine) in self.serve.iter().zip(prepared.engines) {
            let label = flavor.kind.label();
            let mut counted = 0u64;
            let mut prefix = None;
            for tick in 0..self.mix.serve_ticks {
                if keep && tick == REPLAY_TICKS {
                    prefix = Some((engine.stats(), engine.session_digests()));
                }
                let iter_start = Instant::now();
                engine.admit(wave, WAVE_LIFE.0, WAVE_LIFE.1);
                let live = engine.live_sessions();
                counted += live;
                let tick_start = Instant::now();
                let ticked = {
                    let _span = collector.span(format!("serve/{label}/tick"));
                    engine.tick(collector)
                };
                let done = Instant::now();
                out.decision_ops.attempted += live;
                out.decision_ops.failed += checks::missing_decisions(live, ticked.decisions);
                out.tick_ns
                    .push(u64::try_from((done - tick_start).as_nanos()).unwrap_or(u64::MAX));
                out.serve_s += (done - iter_start).as_secs_f64();
            }
            let stats = engine.stats();
            out.decisions += stats.decisions;
            fp.word(stats.checksum);
            fp.word(stats.decisions);
            if collector.enabled() {
                let latency = engine.latency();
                out.serve_forward_s += latency.mean_ns as f64 * latency.batches as f64 * 1e-9;
                out.serve_batches += stats.batches;
                out.serve_retained += stats.retired_sessions;
            }
            if keep {
                let (prefix_stats, prefix_digests) =
                    prefix.unwrap_or_else(|| (engine.stats(), engine.session_digests()));
                kept.serve.push(ServeKept {
                    counted,
                    digests: engine.session_digests(),
                    stats,
                    prefix_stats,
                    prefix_digests,
                });
            }
        }

        out.fingerprint = fp.0;
        out.wall_s = secs(round_start);
        if keep {
            kept.fingerprint = out.fingerprint;
            self.kept = Some(kept);
        }
        out
    }

    /// Nanoseconds per row of `act_batch` and of `act_greedy_with`, each
    /// timed on full batches of every flavor's observations.
    pub fn kernel_ns_per_row(&self) -> (f64, f64) {
        let (mut batch_ns, mut scalar_ns) = (0.0, 0.0);
        for flavor in &self.serve {
            let policy = self.serve_policy(flavor.kind);
            let source = SyntheticSource::new(flavor.kind);
            let dim = source.obs_dim();
            let mut obs = vec![0.0f32; MAX_BATCH * dim];
            for (r, row) in obs.chunks_exact_mut(dim).enumerate() {
                source.observe(derive_seed(flavor.seed, r as u64), r as u64, 0, row);
            }
            let mut scratch = PolicyScratch::new();
            let mut decided = Vec::with_capacity(MAX_BATCH);
            policy.act_batch(&obs, MAX_BATCH, &mut scratch, &mut decided);
            let t = Instant::now();
            for _ in 0..KERNEL_REPS {
                policy.act_batch(
                    std::hint::black_box(&obs),
                    MAX_BATCH,
                    &mut scratch,
                    &mut decided,
                );
                std::hint::black_box(&decided);
            }
            batch_ns += t.elapsed().as_nanos() as f64;
            let mut scalar = PolicyScratch::new();
            let t = Instant::now();
            for _ in 0..KERNEL_REPS {
                for row in obs.chunks_exact(dim) {
                    std::hint::black_box(
                        policy.act_greedy_with(std::hint::black_box(row), &mut scalar),
                    );
                }
            }
            scalar_ns += t.elapsed().as_nanos() as f64;
        }
        let rows = (KERNEL_REPS * MAX_BATCH * self.serve.len()) as f64;
        (batch_ns / rows, scalar_ns / rows)
    }

    /// Runs every output check on the first round's outputs, and checks
    /// that every later round reproduced them.
    pub fn check(&self, rounds: &[RoundOut]) -> Vec<String> {
        let mut results: Vec<Check> = Vec::new();
        let Some(kept) = &self.kept else {
            return vec!["no round ran".into()];
        };
        for (i, r) in rounds.iter().enumerate().skip(1) {
            results.push(checks::repeats(
                &format!("round {i}"),
                kept.fingerprint,
                r.fingerprint,
            ));
        }

        for (set, result) in self.train.iter().zip(&kept.train) {
            let s = set.scenario.as_ref();
            let label = format!("train/{}", s.name());
            results.push(checks::train_log(
                &label,
                &result.log.iter_rewards,
                set.cfg.total_iters(),
            ));
            results.push(checks::promoted(
                &label,
                &result.promoted,
                set.cfg.rounds,
                &s.full_space(),
            ));
            if self.mix.paper_train {
                let eval_seed = derive_seed(self.check_seed, 0xE7A1);
                let trained = result.agent.policy(PolicyMode::Greedy);
                let untrained =
                    make_agent(s, derive_seed(set.seed, 0x6E7)).policy(PolicyMode::Greedy);
                let trained = mean(&eval_policy_many(s, &trained, &set.held_out, eval_seed));
                let untrained = mean(&eval_policy_many(s, &untrained, &set.held_out, eval_seed));
                eprintln!("{label}: held-out mean reward untrained {untrained:.3} -> trained {trained:.3}");
                results.push(checks::improves(&label, trained, untrained));
            }
        }

        for (set, values) in self.test.iter().zip(&kept.test) {
            let s = set.scenario.as_ref();
            let name = s.name();
            let n = set.configs.len();
            let sampled = (derive_seed(self.check_seed, n as u64) % n as u64) as usize;
            for i in [0, sampled, n - 1] {
                let cfg = &set.configs[i];
                let seed = derive_seed(set.seed, i as u64);
                results.push(checks::same_values(
                    &format!("test/{name}/policy[{i}]"),
                    values.policy[i],
                    s.eval_policy(&set.policy, cfg, seed),
                ));
                for (b, v) in &values.baselines {
                    results.push(checks::same_values(
                        &format!("test/{name}/{b}[{i}]"),
                        v[i],
                        s.eval_baseline(b, cfg, seed),
                    ));
                }
                if let Some(v) = &values.oracle {
                    results.push(checks::same_values(
                        &format!("test/{name}/oracle[{i}]"),
                        v[i],
                        s.eval_oracle(cfg, seed),
                    ));
                }
            }
            if let Some(oracle) = &values.oracle {
                let mut others = vec![("policy".to_string(), mean(&values.policy))];
                others.extend(
                    values
                        .baselines
                        .iter()
                        .map(|(b, v)| (b.to_string(), mean(v))),
                );
                results.push(checks::oracle_dominates(
                    &format!("test/{name}"),
                    mean(oracle),
                    &others,
                ));
            }
        }

        let k = self.mix.search_k;
        for trial in &kept.trials {
            let set = &self.search[trial.set];
            let s = set.scenario.as_ref();
            let copies = vec![trial.config.clone(); k];
            let baseline = eval_baseline_many(s, s.default_baseline(), &copies, trial.seed);
            let policy = eval_policy_many(s, &set.policy, &copies, trial.seed);
            results.push(checks::gap(
                &format!("search/{}", s.name()),
                trial.gap,
                &baseline,
                &policy,
            ));
        }

        for (flavor, served) in self.serve.iter().zip(&kept.serve) {
            let label = format!("serve/{}", flavor.kind.label());
            results.push(checks::serve_counts(
                &label,
                &served.stats,
                served.counted,
                &served.digests,
            ));
            let mut scalar = self.engine(flavor, false, false);
            let wave = self.mix.serve_live / 100;
            for _ in 0..REPLAY_TICKS.min(self.mix.serve_ticks) {
                scalar.admit(wave, WAVE_LIFE.0, WAVE_LIFE.1);
                scalar.tick(noop());
            }
            results.push(checks::replay(
                &label,
                (&served.prefix_stats, &served.prefix_digests),
                (&scalar.stats(), &scalar.session_digests()),
            ));
        }
        results.into_iter().filter_map(Result::err).collect()
    }
}
