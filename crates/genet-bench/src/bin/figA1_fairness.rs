//! Figure A1: N-flow shared-bottleneck convergence and fairness sweep on
//! the event-driven multi-flow core (DESIGN.md §14).
//!
//! N flows of the same rule-based law share one constant bottleneck
//! (12 Mbps, 40 ms base RTT, 80-packet queue). Per episode we resample the
//! per-flow monitor-interval throughputs onto a fixed 0.5 s grid, compute
//! Jain's fairness index at each grid point, and report
//!
//! * `jain_steady` — mean Jain index over the last half of the episode,
//! * `conv_time_s` — earliest time after which the index stays above 0.9
//!   (`conv_frac` = fraction of repetitions that converge at all),
//! * `utilization` — steady aggregate throughput over the link rate,
//! * `reward_mean` — mean per-flow Table-1 reward.
//!
//! Two panels: `homogeneous` (identical 40 ms RTTs) and `rtt_jitter`
//! (per-flow RTTs drawn from 40–70 ms — RTT-unfair laws separate here).
//!
//! Every episode is a pure function of `(panel, n_flows, cc, rep, --seed)`,
//! so the TSV is byte-identical at any `GENET_THREADS` — CI's determinism
//! job diffs threads 1 vs 8, and the perf-smoke job archives/gates the
//! `BENCH_figA1_fairness.json` timings. The sweep's dispatched events land
//! there as the `cc_events` counter, so `stages["eval/sweep/episodes"]
//! .busy_nanos / cc_events` is the event core's cost per event.
//!
//! ```sh
//! cargo run --release -p genet-bench --bin figA1_fairness [-- --full]
//! ```

use genet::cc::control::RuleCc;
use genet::cc::multiflow::{FlowSpec, MultiFlowPath, MultiFlowSim};
use genet::cc::sim::MiStats;
use genet::prelude::*;
use genet::telemetry::counters;
use genet_bench::harness::{self, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shared bottleneck for every episode.
const BW_MBPS: f64 = 12.0;
const BASE_RTT_S: f64 = 0.04;
const QUEUE_PKTS: f64 = 80.0;
/// Extra per-flow RTT in the `rtt_jitter` panel (uniform 0–30 ms).
const JITTER_S: f64 = 0.030;
/// Resampling grid step and convergence bar for the Jain series.
const GRID_STEP_S: f64 = 0.5;
const CONV_THRESHOLD: f64 = 0.9;
/// Warm-up excluded from the series (slow-started flows have no MIs yet).
const WARMUP_S: f64 = 2.0;

const LAWS: [&str; 4] = ["bbr", "cubic", "vivace", "copa"];

/// One cell of the sweep, fully determined by its indices.
#[derive(Clone, Copy)]
struct Episode {
    panel: &'static str,
    jitter: bool,
    n_flows: usize,
    cc: &'static str,
    rep: u64,
}

/// Per-episode outcome, aggregated over repetitions per TSV row.
struct Outcome {
    jain_steady: f64,
    conv_time_s: Option<f64>,
    utilization: f64,
    reward_mean: f64,
    /// Events the simulator dispatched.
    events: u64,
}

/// Splittable per-episode seed: a fixed-key hash of the cell indices, so
/// adding panels/laws never perturbs existing episodes.
fn episode_seed(master: u64, e: &Episode) -> u64 {
    let mut h = master ^ 0xA1F0_5EED_0000_0000;
    for part in [
        e.jitter as u64,
        e.n_flows as u64,
        e.cc.bytes().map(u64::from).sum::<u64>(),
        e.rep,
    ] {
        h ^= part.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(31);
    }
    h
}

/// Throughput of the monitor interval covering `t` (the last interval once
/// the episode tail is reached, 0 before the flow's first interval).
fn tput_at(mis: &[MiStats], t: f64) -> f64 {
    let mut last = 0.0;
    for m in mis {
        if t < m.start_s {
            return last;
        }
        last = m.throughput_mbps;
        if t < m.start_s + m.dur_s {
            return m.throughput_mbps;
        }
    }
    last
}

fn run_episode(e: &Episode, master_seed: u64, duration_s: f64) -> Outcome {
    let seed = episode_seed(master_seed, e);
    // Per-flow RTTs are the only randomness owned by the harness; the
    // simulator derives loss/noise/start-rate streams from `seed` itself.
    let mut rtt_rng = StdRng::seed_from_u64(seed ^ 0x17);
    let specs = (0..e.n_flows)
        .map(|_| {
            let jitter = if e.jitter {
                rtt_rng.random::<f64>() * JITTER_S
            } else {
                0.0
            };
            FlowSpec {
                cc: Box::new(RuleCc::by_name(e.cc)),
                base_rtt_s: BASE_RTT_S + jitter,
                start_rate_mbps: None,
            }
        })
        .collect();
    let mut sim = MultiFlowSim::new(
        MultiFlowPath {
            trace: BandwidthTrace::constant(BW_MBPS, duration_s + 1.0),
            queue_cap_pkts: QUEUE_PKTS,
            loss_rate: 0.0,
            ack_loss_rate: 0.0,
            delay_noise_s: 0.0,
            duration_s,
        },
        specs,
        seed,
    );
    sim.run();

    let per_flow: Vec<&[MiStats]> = (0..e.n_flows).map(|f| sim.completed_mis(f)).collect();
    let mut times = Vec::new();
    let mut jains = Vec::new();
    let mut aggs = Vec::new();
    let mut t = WARMUP_S;
    while t < duration_s {
        let tputs: Vec<f64> = per_flow.iter().map(|mis| tput_at(mis, t)).collect();
        times.push(t);
        jains.push(jain_fairness(&tputs));
        aggs.push(tputs.iter().sum::<f64>());
        t += GRID_STEP_S;
    }
    let half = jains.len() / 2;
    Outcome {
        jain_steady: mean(&jains[half..]),
        conv_time_s: convergence_time(&times, &jains, CONV_THRESHOLD),
        utilization: mean(&aggs[half..]) / BW_MBPS,
        reward_mean: mean(
            &(0..e.n_flows)
                .map(|f| sim.flow_reward(f))
                .collect::<Vec<_>>(),
        ),
        events: sim.events_dispatched(),
    }
}

fn main() {
    let args = Args::parse();
    let mut out = harness::tsv("figA1_fairness");
    out.header(&[
        "panel",
        "cc",
        "n_flows",
        "reps",
        "jain_steady",
        "jain_worst",
        "conv_time_s",
        "conv_frac",
        "utilization",
        "reward_mean",
    ]);

    let flow_counts: &[usize] = if args.full { &[2, 3, 4, 6, 8] } else { &[2, 4] };
    let reps: u64 = if args.full { 12 } else { 6 };
    let duration_s = if args.full { 30.0 } else { 20.0 };

    // Flatten the sweep so the fan-out sees one flat batch; each episode is
    // a pure function of its cell, keeping the TSV thread-count-invariant.
    let mut episodes = Vec::new();
    for (panel, jitter) in [("homogeneous", false), ("rtt_jitter", true)] {
        for &cc in &LAWS {
            for &n_flows in flow_counts {
                for rep in 0..reps {
                    episodes.push(Episode {
                        panel,
                        jitter,
                        n_flows,
                        cc,
                        rep,
                    });
                }
            }
        }
    }
    let outcomes = par_map_with(
        episodes.len(),
        |i| run_episode(&episodes[i], args.seed, duration_s),
        args.collector(),
        "sweep/episodes",
    );
    args.collector()
        .counter_add(counters::CC_EVENTS, outcomes.iter().map(|o| o.events).sum());

    // One TSV row per (panel, cc, n) cell, aggregated over repetitions.
    let _span = args.collector().span("report/aggregate");
    for (cell, outs) in episodes
        .chunks(reps as usize)
        .zip(outcomes.chunks(reps as usize))
    {
        let e = &cell[0];
        let steady: Vec<f64> = outs.iter().map(|o| o.jain_steady).collect();
        let conv: Vec<f64> = outs.iter().filter_map(|o| o.conv_time_s).collect();
        let conv_frac = conv.len() as f64 / outs.len() as f64;
        let conv_mean = if conv.is_empty() {
            f64::NAN
        } else {
            mean(&conv)
        };
        out.row(&vec![
            e.panel.into(),
            e.cc.into(),
            e.n_flows.to_string(),
            reps.to_string(),
            fmt(mean(&steady)),
            fmt(steady.iter().cloned().fold(f64::INFINITY, f64::min)),
            fmt(conv_mean),
            fmt(conv_frac),
            fmt(mean(
                &outs.iter().map(|o| o.utilization).collect::<Vec<_>>(),
            )),
            fmt(mean(
                &outs.iter().map(|o| o.reward_mean).collect::<Vec<_>>(),
            )),
        ]);
    }
}
