//! Per-layer metrics of the traced run.
//!
//! Traced rounds hand one [`MemorySink`] to every entry point that takes a
//! `Collector`, and record the benchmark's own spans — one around every
//! public call it makes — into the same sink through `Collector::span`;
//! untraced rounds pass `noop()`, so they run exactly the untraced code.
//! The sink keeps the spans, `ParStage` busy times and counters in memory
//! until the run ends, when [`layer_metrics`] folds them into the
//! per-layer metrics and [`write_profile`] prints the span tree.
//!
//! The benchmark's spans are `genet_train/<scenario>`,
//! `test/<scenario>/{policy,baselines/<name>,oracle}`,
//! `search/<scenario>/<strategy>/{propose,evaluate}` and
//! `serve/<flavor>/tick`; the program's own are `train/...` (with
//! `.../rollout`, `.../ppo-update` and `.../bo/trial-N` leaves).

use genet::telemetry::{Event, MemorySink, SpanTree};

/// Folds everything the sink recorded into per-layer metrics, each divided
/// by `rounds` (the number of traced rounds), so the figures are per round.
/// `extra` carries the metrics the stages measured themselves.
pub fn layer_metrics(
    sink: &MemorySink,
    rounds: usize,
    extra: &[(&str, f64)],
) -> Vec<(String, f64)> {
    let spans = sink.spans();
    let seconds = |pred: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|(p, _)| pred(p))
            .map(|(_, ns)| *ns as f64 * 1e-9)
            .sum()
    };
    // (stage, workers, summed busy, slowest worker busy, mean worker busy)
    let stages: Vec<(String, u64, u64, u64, f64)> = sink
        .events_of("par_stage")
        .into_iter()
        .filter_map(|e| match e {
            Event::ParStage {
                stage,
                workers,
                busy_nanos,
                busy_ns,
                ..
            } => {
                let max = busy_ns.iter().copied().max().unwrap_or(0);
                let mean = busy_ns.iter().sum::<u64>() as f64 / busy_ns.len().max(1) as f64;
                Some((stage, workers, busy_nanos, max, mean))
            }
            _ => None,
        })
        .collect();
    let stage_busy = |name: &str| -> f64 {
        stages
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2 as f64 * 1e-9)
            .sum()
    };
    let counter = |name: &str| sink.counter(name) as f64;

    let update_s = seconds(&|p| p.ends_with("/ppo-update"));
    let update_busy_s = stage_busy("ppo-update");
    let update_workers = stages
        .iter()
        .filter(|s| s.0 == "ppo-update")
        .map(|s| s.1)
        .max()
        .unwrap_or(1) as f64;
    let (eval_max, eval_mean) = stages
        .iter()
        .filter(|s| s.0.starts_with("eval/"))
        .fold((0.0, 0.0), |(m, a), s| (m + s.3 as f64, a + s.4));
    // The engine emits one `serve_batch` stage per tick, in tick order.
    let ticks: Vec<u64> = spans
        .iter()
        .filter(|(p, _)| p.ends_with("/tick"))
        .map(|(_, ns)| *ns)
        .collect();
    let fanout_s: f64 = ticks
        .iter()
        .zip(stages.iter().filter(|s| s.0 == genet::serve::SERVE_STAGE))
        .map(|(tick, s)| (*tick as f64 - s.3 as f64) * 1e-9)
        .sum();

    let mut out = vec![
        (
            "core.train.rollout_s".to_string(),
            seconds(&|p| p.ends_with("/rollout")),
        ),
        ("core.train.env_steps".into(), counter("env_steps")),
        ("rl.update_s".into(), update_s),
        ("rl.update_busy_s".into(), update_busy_s),
        ("rl.update_samples".into(), counter("update_samples")),
        (
            "par.update_idle_s".into(),
            update_workers * update_s - update_busy_s,
        ),
        ("par.serve_fanout_s".into(), fanout_s),
        (
            "core.sequencing_s".into(),
            seconds(&|p| p.contains("/bo/trial-")),
        ),
        (
            "core.gap_eval_busy_s".into(),
            stage_busy(genet::core::GAP_EVAL_STAGE),
        ),
        (
            "core.gap_tasks".into(),
            counter("gap_cache_hit") + counter("gap_cache_miss"),
        ),
        ("core.gap_cache_hits".into(), counter("gap_cache_hit")),
        ("bo.propose_s".into(), seconds(&|p| p.ends_with("/propose"))),
        (
            "bo.ei_score_busy_s".into(),
            stage_busy(genet::bo::EI_SCORE_STAGE),
        ),
        ("core.eval.episodes".into(), counter("eval_envs")),
        (
            "serve.tick_s".into(),
            ticks.iter().map(|ns| *ns as f64 * 1e-9).sum(),
        ),
        ("serve.busy_s".into(), stage_busy(genet::serve::SERVE_STAGE)),
    ];
    // LB's test stage runs no oracle (see README.md).
    for scenario in ["abr", "cc", "lb", "cc_mf"] {
        for part in ["policy", "baselines", "oracle"] {
            if scenario == "lb" && part == "oracle" {
                continue;
            }
            let prefix = format!("test/{scenario}/{part}");
            let secs = seconds(&|p| p.starts_with(&prefix));
            out.push((format!("{scenario}.test.{part}_s"), secs));
        }
    }
    for (name, value) in extra {
        out.push((name.to_string(), *value));
    }
    let per_round = 1.0 / rounds.max(1) as f64;
    for (_, v) in out.iter_mut() {
        *v *= per_round;
    }
    // A ratio is not a per-round quantity.
    let imbalance = if eval_mean > 0.0 {
        eval_max / eval_mean
    } else {
        1.0
    };
    out.push(("par.eval_imbalance".into(), imbalance));
    out
}

/// Writes the span tree of everything recorded to stderr: per span path
/// (numbered segments folded), total time, self time and calls.
pub fn write_profile(sink: &MemorySink) {
    let mut tree = SpanTree::new();
    for (path, ns) in sink.spans() {
        tree.add(&path, ns);
    }
    eprint!("# span profile\n{}", tree.render());
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet::telemetry::Collector;

    fn get(m: &[(String, f64)], name: &str) -> Option<f64> {
        m.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    #[test]
    fn empty_sink_reads_zero() {
        let m = layer_metrics(&MemorySink::new(), 1, &[]);
        assert_eq!(get(&m, "core.train.env_steps"), Some(0.0));
        assert_eq!(get(&m, "abr.test.policy_s"), Some(0.0));
        assert_eq!(get(&m, "lb.test.oracle_s"), None);
    }

    #[test]
    fn metrics_sum_per_round() {
        let sink = MemorySink::new();
        let traced: &dyn Collector = &sink;
        {
            let _outer = traced.span("test/cc");
            let _inner = traced.span("test/cc/policy");
        }
        traced.counter_add("env_steps", 10);
        traced.span_end("train/initial/ppo-update", 2_000_000_000);
        traced.span_end("test/cc_mf/policy", 4_000_000_000);
        let m = layer_metrics(&sink, 2, &[("serve.batches", 8.0)]);
        assert_eq!(get(&m, "core.train.env_steps"), Some(5.0));
        assert_eq!(get(&m, "rl.update_s"), Some(1.0));
        assert_eq!(get(&m, "serve.batches"), Some(4.0));
        assert_eq!(get(&m, "cc_mf.test.policy_s"), Some(2.0));
        let cc = get(&m, "cc.test.policy_s").unwrap();
        assert!(cc > 0.0 && cc < 1.0, "cc.test.policy_s {cc}");
    }
}
