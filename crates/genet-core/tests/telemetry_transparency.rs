//! Telemetry must be strictly out-of-band: attaching a collector may not
//! perturb a single bit of training, sequencing, or evaluation. These tests
//! run the same seeded workload with and without a sink and require
//! identical results, then check the sink actually observed the run.

use genet_core::evaluate::{eval_policy_many, eval_policy_many_with, par_map, par_map_with};
use genet_core::genet::{genet_train_instrumented, genet_train_with, GenetConfig};
use genet_core::train::make_agent;
use genet_env::Scenario;
use genet_lb::LbScenario;
use genet_rl::PolicyMode;
use genet_telemetry::{counters, Event, MemorySink};

fn tiny_config(scenario: &dyn Scenario) -> GenetConfig {
    let mut cfg = GenetConfig::defaults_for(scenario);
    cfg.rounds = 2;
    cfg.iters_per_round = 3;
    cfg.initial_iters = 4;
    cfg.bo_trials = 4;
    cfg.k_envs = 2;
    cfg.train.configs_per_iter = 3;
    cfg.train.envs_per_config = 2;
    cfg
}

#[test]
fn collector_does_not_perturb_genet_training() {
    let s = LbScenario;
    let cfg = tiny_config(&s);
    let seed = 7;

    let plain = genet_train_with(&s, s.full_space(), &cfg, make_agent(&s, 1), seed, |_, _| {});
    let sink = MemorySink::new();
    let observed = genet_train_instrumented(
        &s,
        s.full_space(),
        &cfg,
        make_agent(&s, 1),
        seed,
        |_, _| {},
        &sink,
    );

    // Bit-identical rewards and promotions.
    assert_eq!(plain.log.iter_rewards, observed.log.iter_rewards);
    assert_eq!(plain.promoted.len(), observed.promoted.len());
    for ((c1, v1), (c2, v2)) in plain.promoted.iter().zip(&observed.promoted) {
        assert_eq!(c1, c2);
        assert_eq!(v1.to_bits(), v2.to_bits());
    }

    // The sink saw the whole run.
    let iters = cfg.initial_iters + cfg.rounds * cfg.iters_per_round;
    assert_eq!(sink.events_of("train_iter").len(), iters);
    assert_eq!(sink.events_of("bo_trial").len(), cfg.rounds * cfg.bo_trials);
    assert_eq!(sink.events_of("promotion").len(), cfg.rounds);
    assert_eq!(sink.counter(counters::GRAD_UPDATES), iters as u64);
    let episodes = iters * cfg.train.configs_per_iter * cfg.train.envs_per_config;
    assert_eq!(sink.counter(counters::EPISODES), episodes as u64);
    assert_eq!(
        sink.counter(counters::BO_TRIALS),
        (cfg.rounds * cfg.bo_trials) as u64
    );

    // TrainIter events carry the same rewards the log reports, scoped to
    // their phase.
    let train_iters = sink.events_of("train_iter");
    let rewards: Vec<f64> = train_iters
        .iter()
        .map(|e| match e {
            Event::TrainIter { mean_reward, .. } => *mean_reward,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(rewards, observed.log.iter_rewards);
    assert!(matches!(
        &train_iters[0],
        Event::TrainIter { scope, .. } if scope == "train/initial"
    ));

    // Promotion events mirror the promoted list.
    for (event, (cfg_promoted, value)) in sink.events_of("promotion").iter().zip(&observed.promoted)
    {
        match event {
            Event::Promotion {
                config, value: v, ..
            } => {
                assert_eq!(config, cfg_promoted.values());
                assert_eq!(v.to_bits(), value.to_bits());
            }
            _ => unreachable!(),
        }
    }

    // Span records nest: the run root, the initial phase, and each round.
    let spans = sink.spans();
    let paths: Vec<&str> = spans.iter().map(|(p, _)| p.as_str()).collect();
    assert!(paths.contains(&"train"));
    assert!(paths.contains(&"train/initial/rollout"));
    assert!(paths.contains(&"train/initial/ppo-update"));
    assert!(paths.contains(&"train/sequencing/round-0"));
    assert!(paths.contains(&"train/sequencing/round-1/bo/trial-3"));
    // The root span closes last.
    assert_eq!(spans.last().unwrap().0, "train");

    // One record per parallel batch: nothing but these four kinds, so a
    // second per-batch record cannot come back unnoticed.
    for event in sink.events() {
        assert!(
            matches!(
                event.kind(),
                "train_iter" | "bo_trial" | "promotion" | "par_stage"
            ),
            "unexpected {} event during training",
            event.kind()
        );
    }

    // Worker-level stage accounting: one rollout + one ppo-update par_stage
    // event per training iteration, internally consistent (per-worker busy
    // times sum to the batch total, item counts cover the batch).
    let par_stages = sink.events_of("par_stage");
    let mut rollout_stages = 0usize;
    let mut update_stages = 0usize;
    let (mut rollout_busy, mut update_busy) = (0u64, 0u64);
    let mut gap_stages = 0usize;
    let mut gap_items = 0u64;
    let mut ei_stages = 0usize;
    for event in &par_stages {
        let Event::ParStage {
            stage,
            items,
            workers,
            busy_nanos,
            busy_ns,
            worker_items,
            imbalance,
            ..
        } = event
        else {
            unreachable!()
        };
        assert!(*workers >= 1);
        assert!(*imbalance >= 1.0, "{stage}: imbalance {imbalance}");
        assert!(
            busy_ns.len() <= *workers as usize,
            "{stage}: {} busy slots for {workers} workers",
            busy_ns.len()
        );
        assert_eq!(busy_ns.iter().sum::<u64>(), *busy_nanos, "{stage}");
        match stage.as_str() {
            "rollout" => {
                rollout_stages += 1;
                rollout_busy += *busy_nanos;
                // Rollout worker items are episodes and cover the batch.
                assert_eq!(worker_items.iter().sum::<u64>(), *items, "{stage}");
            }
            "ppo-update" => {
                update_stages += 1;
                update_busy += *busy_nanos;
            }
            genet_core::plan::GAP_EVAL_STAGE => {
                gap_stages += 1;
                gap_items += *items;
                assert_eq!(worker_items.iter().sum::<u64>(), *items, "{stage}");
            }
            "ei_score" => {
                ei_stages += 1;
                assert_eq!(worker_items.iter().sum::<u64>(), *items, "{stage}");
            }
            other => panic!("unexpected stage {other} during training"),
        }
    }
    assert_eq!(rollout_stages, iters);
    assert_eq!(update_stages, iters);

    assert!(rollout_busy > 0);
    assert!(update_busy > 0);

    // Fused gap-eval batches: the loop holds no memo cache (every trial
    // seeds its own plan, so no key would repeat), so each BO trial runs
    // exactly one batch, and every one of the 2k tasks of every trial's
    // gap-to-baseline plan is a miss executed as one gap_eval item.
    let trials = cfg.rounds * cfg.bo_trials;
    assert_eq!(gap_stages, trials);
    assert_eq!(sink.counter(counters::GAP_CACHE_HIT), 0);
    let misses = sink.counter(counters::GAP_CACHE_MISS);
    assert_eq!(misses, gap_items);
    assert_eq!(misses, (trials * 2 * cfg.k_envs) as u64);
    // EI scoring shards: only post-init BO trials propose via the GP.
    assert!(ei_stages >= 1 && ei_stages <= trials, "{ei_stages}");
    assert_eq!(sink.counter(counters::EPISODES), episodes as u64);
    assert!(sink.counter(counters::UPDATE_SAMPLES) > 0);
}

#[test]
fn collector_does_not_perturb_evaluation() {
    let s = LbScenario;
    let configs = genet_core::evaluate::test_configs(&s.full_space(), 9, 3);
    let agent = make_agent(&s, 0);
    let policy = agent.policy(PolicyMode::Greedy);

    let plain = eval_policy_many(&s, &policy, &configs, 11);
    let sink = MemorySink::new();
    let observed = eval_policy_many_with(&s, &policy, &configs, 11, &sink);
    assert_eq!(plain, observed);

    assert_one_eval_stage(&sink, "eval/policy", configs.len());
    assert_eq!(sink.counter(counters::EVAL_ENVS), configs.len() as u64);
}

/// The sink holds exactly one event: the `par_stage` record of one
/// evaluation batch of `n` items on at least one worker.
fn assert_one_eval_stage(sink: &MemorySink, want_stage: &str, n: usize) {
    let events = sink.events();
    assert_eq!(events.len(), 1, "one record per batch: {events:?}");
    match &events[0] {
        Event::ParStage {
            stage,
            items,
            workers,
            worker_items,
            ..
        } => {
            assert_eq!(stage, want_stage);
            assert_eq!(*items, n as u64);
            assert_eq!(worker_items.iter().sum::<u64>(), n as u64);
            assert!(*workers >= 1);
        }
        other => panic!("expected a par_stage event, got {other:?}"),
    }
}

#[test]
fn par_map_with_matches_par_map() {
    let sink = MemorySink::new();
    let plain: Vec<usize> = par_map(37, |i| i * i);
    let observed: Vec<usize> = par_map_with(37, |i| i * i, &sink, "square");
    assert_eq!(plain, observed);
    assert_one_eval_stage(&sink, "eval/square", 37);
}
