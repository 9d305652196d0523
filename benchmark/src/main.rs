//! One command for the repository's benchmark.
//!
//! ```sh
//! cargo run --release --offline --locked --manifest-path benchmark/Cargo.toml -- \
//!     --workload train|evaluate|serve --seed N --seconds S --trace 0|1
//! cargo run ... -- steadiness [--runs 10] [--seed 1]
//! cargo run ... -- regen-policies
//! ```
//!
//! A run builds its inputs from `--seed`, runs whole rounds of the
//! workload until `--seconds` have passed, checks the program's outputs,
//! and prints one JSON result as the last line of stdout. `--trace 1`
//! alternates untraced and traced rounds and reports per-layer metrics
//! instead of end-to-end ones. See README.md for the workloads and metrics.

mod checks;
mod stages;
mod stats;
mod steady;
mod trace;

use genet::math::median;
use genet::telemetry::{noop, Collector, MemorySink};
use stages::{Bench, Mix, Ops, Policies, RoundOut};
use stats::nearest_rank;
use std::time::{Duration, Instant};

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steadiness") => steady::main(&args[1..]),
        Some("regen-policies") => match &args[1..] {
            [] => Policies::regenerate(),
            extra => Err(format!("regen-policies takes no arguments, got {extra:?}")),
        },
        _ => run(start, &args),
    };
    if let Err(e) = result {
        eprintln!("genet-benchmark: {e}");
        std::process::exit(2);
    }
}

/// Reads `--name value` pairs; every name must be in `known`.
pub fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?} (expected one of {known:?})"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

pub fn parse<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot parse {value:?}"))
}

fn run(start: Instant, args: &[String]) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    for (name, value) in flags(args, &["workload", "seed", "seconds", "trace"])? {
        match name.as_str() {
            "workload" => workload = Some(value),
            "seed" => seed = Some(parse::<u64>(&name, &value)?),
            "seconds" => seconds = Some(parse::<u64>(&name, &value)?),
            _ => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mix = Mix::for_workload(&workload)
        .ok_or_else(|| format!("unknown workload {workload:?} (train, evaluate, serve)"))?;
    let seed = seed.ok_or("--seed is required")?;
    let budget = Duration::from_secs(seconds.ok_or("--seconds is required")?);
    eprintln!(
        "workload {workload} seed {seed} workers {}",
        genet::core::evaluate::configured_threads()
    );

    // Set-up: load policies, generate configurations, build agents and
    // engines for the first round.
    let policies = Policies::load()?;
    let mut bench = Bench::new(mix, &policies, seed);
    let sink = MemorySink::new();
    let mut prepared = bench.prepare(false);
    let setup_s = start.elapsed().as_secs_f64();

    // Timed part: whole rounds until the budget is spent. A traced run
    // alternates untraced and traced rounds and ends on a traced one.
    let traced_round = |i: usize| trace && i % 2 == 1;
    let timed = Instant::now();
    let mut rounds: Vec<RoundOut> = Vec::new();
    loop {
        let traced = traced_round(rounds.len());
        let collector: &dyn Collector = if traced { &sink } else { noop() };
        let out = bench.round(prepared, collector);
        eprintln!(
            "round {} {}: {:.3} s (train {:.3}, test {:.3}, search {:.3}, serve {:.3})",
            rounds.len(),
            if traced { "traced" } else { "untraced" },
            out.wall_s,
            out.train_s,
            out.test_s,
            out.search_s,
            out.serve_s
        );
        rounds.push(out);
        let next_traced = traced_round(rounds.len());
        if !next_traced && timed.elapsed() >= budget {
            break;
        }
        prepared = bench.prepare(next_traced);
    }
    let peak_rss_mb = peak_rss_mb()?;

    let failures = bench.check(&rounds);
    for f in &failures {
        eprintln!("CHECK FAILED: {f}");
    }
    // The workload's own operations: PPO iterations, episodes or decisions.
    let ops = rounds
        .iter()
        .map(|r| match workload.as_str() {
            "train" => r.iterations,
            "evaluate" => r.episodes,
            _ => r.decision_ops,
        })
        .fold(Ops::default(), |a, o| Ops {
            attempted: a.attempted + o.attempted,
            failed: a.failed + o.failed,
        });

    let metrics = if trace {
        trace::write_profile(&sink);
        let kernels = bench.kernel_ns_per_row();
        layer_metrics(&sink, &rounds, peak_rss_mb, kernels)
    } else {
        end_to_end(setup_s, &rounds)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    Ok(())
}

fn end_to_end(setup_s: f64, rounds: &[RoundOut]) -> Vec<(String, f64)> {
    let med = |f: fn(&RoundOut) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let decisions: u64 = rounds.iter().map(|r| r.decisions).sum();
    let serve_s: f64 = rounds.iter().map(|r| r.serve_s).sum();
    vec![
        ("setup_s".into(), setup_s),
        ("train_s".into(), med(|r| r.train_s)),
        ("test_s".into(), med(|r| r.test_s)),
        ("search_s".into(), med(|r| r.search_s)),
        ("serve_decisions_per_s".into(), decisions as f64 / serve_s),
        ("serve_tick_p50_ms".into(), tick_ms(rounds.iter(), 0.5)),
    ]
}

/// The `q` quantile (nearest rank) of every tick the rounds timed, in ms.
fn tick_ms<'a>(rounds: impl Iterator<Item = &'a RoundOut>, q: f64) -> f64 {
    let ms: Vec<f64> = rounds
        .flat_map(|r| r.tick_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    nearest_rank(&ms, q)
}

fn layer_metrics(
    sink: &MemorySink,
    rounds: &[RoundOut],
    peak_rss_mb: f64,
    (act_batch_ns, act_scalar_ns): (f64, f64),
) -> Vec<(String, f64)> {
    let traced: Vec<&RoundOut> = rounds.iter().filter(|r| r.traced).collect();
    let n = traced.len().max(1);
    let sum = |f: fn(&RoundOut) -> f64| traced.iter().map(|r| f(r)).sum::<f64>();
    let forward_s = sum(|r| r.serve_forward_s);
    let batches = sum(|r| r.serve_batches as f64);
    let decisions = sum(|r| r.decisions as f64);
    let extra = [
        ("serve.forward_s", forward_s),
        ("serve.batches", batches),
        ("serve.retained_sessions", sum(|r| r.serve_retained as f64)),
    ];
    let mut out = trace::layer_metrics(sink, n, &extra);
    let busy_s = out
        .iter()
        .find(|(k, _)| k == "serve.busy_s")
        .map_or(0.0, |(_, v)| *v);
    let walls = |want: bool| {
        median(
            &rounds
                .iter()
                .filter(|r| r.traced == want)
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        )
    };
    out.extend([
        (
            "serve.stage_apply_s".to_string(),
            busy_s - forward_s / n as f64,
        ),
        ("serve.mean_batch".into(), decisions / batches.max(1.0)),
        ("rl.act_batch_ns_per_row".into(), act_batch_ns),
        ("rl.act_scalar_ns_per_row".into(), act_scalar_ns),
        ("trace.overhead_s".into(), walls(true) - walls(false)),
        // Too unsteady across runs to carry a bound (see README.md).
        (
            "serve_tick_p99_ms".into(),
            tick_ms(traced.iter().copied(), 0.99),
        ),
        ("peak_rss_mb".into(), peak_rss_mb),
    ]);
    out
}

/// Unit of a metric, from its name.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_per_s") {
        "decisions/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_ns_per_row") {
        "ns"
    } else if name.ends_with("imbalance") || name.ends_with("mean_batch") {
        "ratio"
    } else {
        "count"
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
