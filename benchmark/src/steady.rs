//! The steadiness command: runs every workload repeatedly, each run a
//! fresh process with its own seed, alternating the workload order, and
//! prints each end-to-end metric's median, quartiles, quartile spread and
//! max/min ratio — the figures the bounds in BENCHMARK.json are set from.
//! Runs last BENCHMARK.json's `run_seconds`, the length every run has.

use crate::stats::quartiles;
use crate::{flags, parse};
use genet::math::median;
use genet::telemetry::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["train", "evaluate", "serve"];
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `run_seconds` of BENCHMARK.json.
fn run_seconds() -> Result<u64, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    json::parse(&text)
        .map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("{BENCHMARK_JSON}: no whole-number run_seconds"))
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (mut runs, mut seed) = (10u64, 1u64);
    for (name, value) in flags(args, &["runs", "seed"])? {
        match name.as_str() {
            "runs" => runs = parse(&name, &value)?,
            _ => seed = parse(&name, &value)?,
        }
    }
    let seconds = run_seconds()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // workload -> metric -> values, plus (attempted, failed) per run.
    let mut values: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut ops: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for run in 0..runs {
        let mut order = WORKLOADS;
        if run % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let run_seed = seed + run;
            let output = Command::new(&exe)
                .args(["--workload", w, "--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = json::parse(last)
                .map_err(|e| format!("{w} seed {run_seed}: unparsable result {last:?}: {e}"))?;
            if result
                .get("correct")
                .map(|c| matches!(c, JsonValue::Bool(true)))
                != Some(true)
            {
                return Err(format!(
                    "{w} seed {run_seed}: checks failed\n{}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            let count = |k: &str| result.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
            ops.entry(w.to_string())
                .or_default()
                .push((count("attempted"), count("failed")));
            if let Some(JsonValue::Obj(metrics)) = result.get("metrics") {
                for (name, m) in metrics {
                    let v = m
                        .get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN);
                    values
                        .entry(w.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
            eprintln!("run {run} {w} seed {run_seed}: {last}");
        }
    }
    println!("workload\tmetric\tmedian\tq1\tq3\tspread\tmax/min");
    for (w, metrics) in &values {
        for (name, v) in metrics {
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            println!(
                "{w}\t{name}\t{med:.6}\t{q1:.6}\t{q3:.6}\t{:.4}\t{:.4}",
                (q3 - q1) / med.abs(),
                max / min
            );
        }
        let runs = &ops[w];
        let failed: u64 = runs.iter().map(|r| r.1).sum();
        let attempted: u64 = runs.iter().map(|r| r.0).sum();
        println!("{w}\tfailed/attempted\t{failed}/{attempted}");
    }
    Ok(())
}
