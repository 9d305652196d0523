//! The serving engine: arena-backed session shards, batched decisions,
//! bit-identical at any worker count.
//!
//! One [`ServeEngine`] owns every live session. Sessions are stored in
//! per-shard SoA arenas (parallel flat vectors — no per-session boxes); a
//! session's home shard is [`genet_par::session_shard`]`(sid, shards)`, a
//! pure function of its id and the shard count fixed at construction. Each
//! [`ServeEngine::tick`] fans the shards out over
//! [`genet_par::par_map_mut_profiled`] and serves every live session one
//! decision: observations are staged row-major into a reusable arena and
//! decided in sub-batches of [`ServeConfig::max_batch`] through
//! [`FrozenPolicy::act_batch`] (or the scalar
//! [`FrozenPolicy::act_greedy_with`] reference path when
//! [`ServeConfig::batched`] is off). The batch scratch lives in a per-shard
//! [`PolicyScratch`], so the steady-state hot loop allocates nothing.
//!
//! Determinism: every decision is a pure function of the session's own
//! `(seed, step, last_action)` — batch rows are bit-equal to the scalar
//! forward pass, so regrouping sessions into different shards or batches
//! cannot change any decision. Per-session decision *digests* (a hash
//! chain over the session's decisions) and the engine *checksum* (a
//! wrapping sum of per-decision stamps, commutative and therefore
//! shard-order-free) are bit-identical at any thread count; batch
//! occupancy and latency are the thread-*dependent* perf telemetry and are
//! reported separately.

use std::time::Instant;

use genet_env::PolicyScratch;
use genet_math::derive_seed;
use genet_rl::FrozenPolicy;
use genet_telemetry::{counters, Collector, Event};

use crate::source::{mix64, SessionSource};

/// Stage name under which [`ServeEngine::tick`] reports its fan-out
/// ([`Event::ParStage`] and the BENCH json `stages` map).
pub const SERVE_STAGE: &str = "serve_batch";

/// Batch-occupancy histogram size: bucket `i` counts batches of
/// `2^i ..= 2^(i+1) - 1` sessions (last bucket clamps, covering 1024+).
pub const OCC_BUCKETS: usize = 11;

/// Serving-engine knobs. All of them are perf/observability knobs: no
/// setting changes a single decision (`tests/serve_thread_invariance.rs`).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest decision batch a shard stages at once (default 512).
    pub max_batch: usize,
    /// Shard count; `0` (default) resolves to the worker count the
    /// parallel engine would use, so shards and workers line up 1:1.
    pub shards: usize,
    /// Serve through [`FrozenPolicy::act_batch`] (default) or the scalar
    /// [`FrozenPolicy::act_greedy_with`] reference path — same decisions,
    /// different throughput; the load bench compares the two.
    pub batched: bool,
    /// Record per-batch decision latency and worker busy time. Purely
    /// observational; adds two clock reads per batch.
    pub timed: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 512,
            shards: 0,
            batched: true,
            timed: false,
        }
    }
}

/// What one [`ServeEngine::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Decisions served (one per session live at the start of the tick).
    pub decisions: u64,
    /// Sessions whose lifetime ended this tick (retired after serving).
    pub departures: u64,
}

/// Cumulative engine counters, aggregated across shards by
/// [`ServeEngine::stats`]. Everything here is bit-identical at any thread
/// count except `batches` and `occupancy`, which depend on how sessions
/// group into shards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Sessions currently live.
    pub live_sessions: u64,
    /// Sessions retired so far.
    pub retired_sessions: u64,
    /// Sessions ever admitted.
    pub arrivals: u64,
    /// Sessions ever departed.
    pub departures: u64,
    /// Total decisions served.
    pub decisions: u64,
    /// Ticks run.
    pub ticks: u64,
    /// Wrapping sum of per-decision stamps — the order-free fingerprint of
    /// the complete decision stream.
    pub checksum: u64,
    /// Decisions per action index.
    pub action_hist: Vec<u64>,
    /// Decision batches staged (thread-dependent).
    pub batches: u64,
    /// Batch-occupancy histogram, bucket `i` = batches of size
    /// `[2^i, 2^(i+1))` (thread-dependent).
    pub occupancy: [u64; OCC_BUCKETS],
}

/// Decision-latency summary over every timed batch, decision-weighted
/// (each decision experiences its batch's latency). Empty (`decisions ==
/// 0`) unless [`ServeConfig::timed`] was on. Latency is measured around
/// the policy forward + argmax only — observation staging and state
/// updates are excluded — and shards share worker threads, so tail
/// percentiles include scheduling effects; see DESIGN.md §16 for the
/// methodology caveats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// Decisions the summary covers.
    pub decisions: u64,
    /// Timed batches the summary covers.
    pub batches: u64,
    /// Decision-weighted mean batch latency, nanoseconds.
    pub mean_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

/// Per-decision stamp: a pure function of `(sid, step, action)`. Digests
/// chain it per session; the engine checksum wrap-sums it (commutative, so
/// the total is independent of serving order and sharding).
fn decision_stamp(sid: u64, step: u64, action: usize) -> u64 {
    mix64(sid ^ mix64(step.wrapping_mul(0x0C9A_2AE6_07FD_3F4D) ^ (action as u64)))
}

/// Occupancy bucket of a batch of `m ≥ 1` sessions: `floor(log2(m))`,
/// clamped to the last bucket.
fn occ_bucket(m: usize) -> usize {
    (m.ilog2() as usize).min(OCC_BUCKETS - 1)
}

/// A retired session's durable record: enough to reconstruct its place in
/// the canonical decision stream ([`ServeEngine::session_digests`]).
#[derive(Debug, Clone, Copy)]
struct Retired {
    sid: u64,
    steps: u64,
    digest: u64,
}

/// SoA session arena: one row per live session, parallel flat vectors,
/// compacted in admission order on retirement. No per-session allocation.
#[derive(Debug, Default)]
struct SessionStore {
    sids: Vec<u64>,
    seeds: Vec<u64>,
    steps: Vec<u64>,
    last_actions: Vec<usize>,
    remaining: Vec<u32>,
    digests: Vec<u64>,
}

impl SessionStore {
    fn len(&self) -> usize {
        self.sids.len()
    }

    fn push(&mut self, sid: u64, seed: u64, lifetime: u32) {
        self.sids.push(sid);
        self.seeds.push(seed);
        self.steps.push(0);
        self.last_actions.push(0);
        self.remaining.push(lifetime);
        self.digests.push(0);
    }

    /// Retires every session with no remaining lifetime, compacting the
    /// arena in place (stable: survivors keep their admission order).
    fn retire_finished(&mut self, retired: &mut Vec<Retired>) -> u64 {
        let n = self.len();
        let mut w = 0;
        let mut gone = 0u64;
        for r in 0..n {
            if self.remaining[r] == 0 {
                retired.push(Retired {
                    sid: self.sids[r],
                    steps: self.steps[r],
                    digest: self.digests[r],
                });
                gone += 1;
            } else {
                self.sids[w] = self.sids[r];
                self.seeds[w] = self.seeds[r];
                self.steps[w] = self.steps[r];
                self.last_actions[w] = self.last_actions[r];
                self.remaining[w] = self.remaining[r];
                self.digests[w] = self.digests[r];
                w += 1;
            }
        }
        self.sids.truncate(w);
        self.seeds.truncate(w);
        self.steps.truncate(w);
        self.last_actions.truncate(w);
        self.remaining.truncate(w);
        self.digests.truncate(w);
        gone
    }
}

/// One shard: its session arena plus every reusable serving buffer and its
/// slice of the engine counters. Shards are `Send` and mutually disjoint,
/// so a tick mutates them in parallel without synchronization.
#[derive(Debug, Default)]
struct Shard {
    store: SessionStore,
    /// Row-major observation staging arena, `max_batch × obs_dim` capacity.
    obs: Vec<f32>,
    /// Decision output of the current batch.
    decisions: Vec<usize>,
    /// Caches the `MlpBatchScratch` (batched mode) or `MlpScratch`
    /// (scalar mode) across batches — one mode per engine, so the slot
    /// never thrashes.
    scratch: PolicyScratch,
    retired: Vec<Retired>,
    checksum: u64,
    action_hist: Vec<u64>,
    batches: u64,
    occupancy: [u64; OCC_BUCKETS],
    /// Timed batches as `(latency_nanos, decisions)` samples.
    latency: Vec<(u64, u64)>,
}

/// Serves every live session of `shard` one decision. Pure in the
/// determinism sense: the decisions and digests it writes depend only on
/// per-session state, never on the shard composition.
fn run_shard_tick<S: SessionSource>(
    shard: &mut Shard,
    policy: FrozenPolicy<'_>,
    source: &S,
    obs_dim: usize,
    max_batch: usize,
    batched: bool,
    timed: bool,
) -> TickStats {
    let n = shard.store.len();
    let mut start = 0;
    while start < n {
        let m = (n - start).min(max_batch);
        shard.obs.resize(m * obs_dim, 0.0);
        for i in 0..m {
            let s = start + i;
            source.observe(
                shard.store.seeds[s],
                shard.store.steps[s],
                shard.store.last_actions[s],
                &mut shard.obs[i * obs_dim..(i + 1) * obs_dim],
            );
        }
        let t0 = timed.then(Instant::now);
        if batched {
            policy.act_batch(&shard.obs, m, &mut shard.scratch, &mut shard.decisions);
        } else {
            shard.decisions.clear();
            for i in 0..m {
                let row = &shard.obs[i * obs_dim..(i + 1) * obs_dim];
                let a = policy.act_greedy_with(row, &mut shard.scratch);
                shard.decisions.push(a);
            }
        }
        if let Some(t0) = t0 {
            // Truncation after 580 years of latency is acceptable.
            shard
                .latency
                .push((t0.elapsed().as_nanos() as u64, m as u64));
        }
        for i in 0..m {
            let s = start + i;
            let action = shard.decisions[i];
            let step = shard.store.steps[s];
            let stamp = decision_stamp(shard.store.sids[s], step, action);
            shard.store.digests[s] = mix64(shard.store.digests[s] ^ stamp);
            shard.store.last_actions[s] = action;
            shard.store.steps[s] = step + 1;
            shard.store.remaining[s] -= 1;
            shard.checksum = shard.checksum.wrapping_add(stamp);
            shard.action_hist[action] += 1;
        }
        shard.batches += 1;
        shard.occupancy[occ_bucket(m)] += 1;
        start += m;
    }
    let departures = shard.store.retire_finished(&mut shard.retired);
    TickStats {
        decisions: n as u64,
        departures,
    }
}

/// The deterministic batching policy-serving engine. See the module docs
/// for the architecture and determinism contract; see
/// `genet-bench --bin figS1_serving` for the traffic-scale load bench
/// built on it.
#[derive(Debug)]
pub struct ServeEngine<'p, S: SessionSource> {
    policy: FrozenPolicy<'p>,
    source: S,
    cfg: ServeConfig,
    obs_dim: usize,
    shards: Vec<Shard>,
    seed: u64,
    next_sid: u64,
    arrivals: u64,
    departures: u64,
    decisions: u64,
    ticks: u64,
}

impl<'p, S: SessionSource> ServeEngine<'p, S> {
    /// An empty engine serving `policy` against `source` sessions.
    /// `seed` roots every per-session seed and lifetime draw.
    ///
    /// # Panics
    /// Panics if `cfg.max_batch == 0` or if the source's observation /
    /// action shape does not match the policy's.
    pub fn new(policy: FrozenPolicy<'p>, source: S, cfg: ServeConfig, seed: u64) -> Self {
        assert!(cfg.max_batch > 0, "max_batch must be at least 1");
        assert_eq!(
            source.obs_dim(),
            policy.obs_dim(),
            "source observation width must match the policy input"
        );
        assert_eq!(
            source.action_count(),
            policy.action_count(),
            "source action count must match the policy output"
        );
        let mut shard_count = cfg.shards;
        if shard_count == 0 {
            shard_count = genet_par::configured_threads();
        }
        let actions = source.action_count();
        let shards = (0..shard_count)
            .map(|_| Shard {
                action_hist: vec![0; actions],
                ..Shard::default()
            })
            .collect();
        Self {
            policy,
            source,
            cfg,
            obs_dim: policy.obs_dim(),
            shards,
            seed,
            next_sid: 0,
            arrivals: 0,
            departures: 0,
            decisions: 0,
            ticks: 0,
        }
    }

    /// The shard count the engine resolved at construction.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sessions currently live.
    pub fn live_sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.store.len() as u64).sum()
    }

    /// Admits `count` new sessions with hash-drawn lifetimes in
    /// `[min_life, max_life]` ticks. Session ids are assigned in admission
    /// order from a monotone counter; each session's seed and lifetime are
    /// pure functions of `(engine seed, sid)`, so an admission schedule
    /// reproduces exactly across runs and thread counts.
    ///
    /// # Panics
    /// Panics unless `1 <= min_life <= max_life`.
    pub fn admit(&mut self, count: usize, min_life: u32, max_life: u32) {
        assert!(
            min_life >= 1 && min_life <= max_life,
            "need 1 <= min_life <= max_life"
        );
        let span = u64::from(max_life - min_life) + 1;
        let shard_count = self.shards.len();
        for _ in 0..count {
            let sid = self.next_sid;
            self.next_sid += 1;
            let seed = derive_seed(self.seed, sid);
            // Remainder is < span ≤ 2^32, so the cast is lossless.
            let life = min_life + (mix64(seed ^ 0x11FE_7157) % span) as u32;
            let home = genet_par::session_shard(sid, shard_count);
            self.shards[home].store.push(sid, seed, life);
            self.arrivals += 1;
        }
    }

    /// Serves every live session one decision (in per-shard sub-batches of
    /// [`ServeConfig::max_batch`]), then retires sessions whose lifetime
    /// ended. Shards fan out over [`genet_par::par_map_mut_profiled`]; the
    /// fan-out is reported to `collector` as a [`SERVE_STAGE`]
    /// [`Event::ParStage`] with per-worker busy/items accounting
    /// (items = decisions, so BENCH stage totals sum up exactly).
    pub fn tick(&mut self, collector: &dyn Collector) -> TickStats {
        let policy = self.policy;
        let source = &self.source;
        let obs_dim = self.obs_dim;
        let max_batch = self.cfg.max_batch;
        let batched = self.cfg.batched;
        let timed = self.cfg.timed;
        let (reports, mut profile) = genet_par::par_map_mut_profiled(
            &mut self.shards,
            |_i, shard| run_shard_tick(shard, policy, source, obs_dim, max_batch, batched, timed),
            timed,
        );
        let decisions: u64 = reports.iter().map(|r| r.decisions).sum();
        let departures: u64 = reports.iter().map(|r| r.departures).sum();
        self.decisions += decisions;
        self.departures += departures;
        self.ticks += 1;
        if collector.enabled() {
            if !profile.worker_items.is_empty() {
                // Re-express per-worker items in decisions instead of
                // shards, so `sum(worker_items) == items` holds in BENCH
                // files.
                let per_shard: Vec<u64> = reports.iter().map(|r| r.decisions).collect();
                profile.worker_items = genet_par::sum_per_worker(&per_shard, profile.workers);
            }
            collector.counter_add(counters::SERVE_DECISIONS, decisions);
            collector.record(&Event::par_stage(
                SERVE_STAGE,
                "",
                decisions,
                profile.workers as u64,
                profile.worker_busy,
                profile.worker_items,
            ));
        }
        TickStats {
            decisions,
            departures,
        }
    }

    /// Cumulative counters, aggregated across shards.
    pub fn stats(&self) -> ServeStats {
        let mut stats = ServeStats {
            live_sessions: self.live_sessions(),
            arrivals: self.arrivals,
            departures: self.departures,
            decisions: self.decisions,
            ticks: self.ticks,
            action_hist: vec![0; self.source.action_count()],
            ..ServeStats::default()
        };
        for shard in &self.shards {
            stats.retired_sessions += shard.retired.len() as u64;
            stats.checksum = stats.checksum.wrapping_add(shard.checksum);
            stats.batches += shard.batches;
            for (total, h) in stats.action_hist.iter_mut().zip(&shard.action_hist) {
                *total += h;
            }
            for (total, o) in stats.occupancy.iter_mut().zip(&shard.occupancy) {
                *total += o;
            }
        }
        stats
    }

    /// Decision-weighted latency percentiles over every timed batch so
    /// far. All-zero unless the engine is [`ServeConfig::timed`].
    pub fn latency(&self) -> LatencyReport {
        let mut samples: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|s| s.latency.iter().copied())
            .collect();
        samples.sort_unstable();
        let total: u64 = samples.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return LatencyReport::default();
        }
        let weighted: u128 = samples
            .iter()
            .map(|&(ns, c)| u128::from(ns) * u128::from(c))
            .sum();
        let pct = |num: u64, den: u64| -> u64 {
            let rank = (total * num).div_ceil(den).max(1);
            let mut cum = 0u64;
            for &(ns, c) in &samples {
                cum += c;
                if cum >= rank {
                    return ns;
                }
            }
            samples.last().map_or(0, |&(ns, _)| ns)
        };
        LatencyReport {
            decisions: total,
            batches: samples.len() as u64,
            // total > 0 here, and the mean of u64 samples fits in u64.
            mean_ns: (weighted / u128::from(total)) as u64,
            p50_ns: pct(1, 2),
            p99_ns: pct(99, 100),
            p999_ns: pct(999, 1000),
        }
    }

    /// The canonical decision stream: `(sid, decisions served, digest)`
    /// for every session ever admitted (live and retired), sorted by sid.
    /// Two engines that made identical decisions produce byte-identical
    /// vectors regardless of thread count, shard count, batch size, or
    /// batched/scalar mode — the determinism tests' ground truth.
    pub fn session_digests(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::with_capacity(self.next_sid as usize);
        for shard in &self.shards {
            for s in 0..shard.store.len() {
                out.push((
                    shard.store.sids[s],
                    shard.store.steps[s],
                    shard.store.digests[s],
                ));
            }
            for r in &shard.retired {
                out.push((r.sid, r.steps, r.digest));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{SyntheticSource, WorkloadKind};
    use genet_rl::{PpoAgent, PpoConfig};

    fn agent(kind: WorkloadKind) -> PpoAgent {
        let src = SyntheticSource::new(kind);
        PpoAgent::new(
            src.obs_dim(),
            src.action_count(),
            PpoConfig::default(),
            0xA11CE,
        )
    }

    #[test]
    fn occ_buckets_cover_batch_sizes() {
        assert_eq!(occ_bucket(1), 0);
        assert_eq!(occ_bucket(2), 1);
        assert_eq!(occ_bucket(3), 1);
        assert_eq!(occ_bucket(512), 9);
        assert_eq!(occ_bucket(100_000), OCC_BUCKETS - 1);
    }

    #[test]
    fn store_retires_and_compacts_in_admission_order() {
        let mut store = SessionStore::default();
        for sid in 0..6u64 {
            store.push(sid, sid * 7, if sid % 2 == 0 { 0 } else { 3 });
        }
        let mut retired = Vec::new();
        let gone = store.retire_finished(&mut retired);
        assert_eq!(gone, 3);
        assert_eq!(store.sids, vec![1, 3, 5]);
        assert_eq!(store.seeds, vec![7, 21, 35]);
        let gone_sids: Vec<u64> = retired.iter().map(|r| r.sid).collect();
        assert_eq!(gone_sids, vec![0, 2, 4]);
    }

    #[test]
    fn sessions_land_on_their_session_shard() {
        let ag = agent(WorkloadKind::LbRouter);
        let cfg = ServeConfig {
            shards: 4,
            ..ServeConfig::default()
        };
        let mut eng = ServeEngine::new(
            ag.frozen(),
            SyntheticSource::new(WorkloadKind::LbRouter),
            cfg,
            9,
        );
        eng.admit(100, 1, 5);
        for (home, shard) in eng.shards.iter().enumerate() {
            for &sid in &shard.store.sids {
                assert_eq!(genet_par::session_shard(sid, 4), home);
            }
        }
        assert_eq!(eng.live_sessions(), 100);
    }

    #[test]
    fn lifetimes_drive_departures_and_stats_balance() {
        let ag = agent(WorkloadKind::AbrPlayer);
        let cfg = ServeConfig {
            shards: 3,
            max_batch: 16,
            ..ServeConfig::default()
        };
        let mut eng = ServeEngine::new(
            ag.frozen(),
            SyntheticSource::new(WorkloadKind::AbrPlayer),
            cfg,
            42,
        );
        eng.admit(200, 1, 4);
        let noop = genet_telemetry::noop();
        let mut decisions = 0;
        let mut departures = 0;
        for _ in 0..4 {
            let t = eng.tick(noop);
            decisions += t.decisions;
            departures += t.departures;
        }
        let stats = eng.stats();
        assert_eq!(stats.arrivals, 200);
        assert_eq!(stats.departures, departures);
        // Max lifetime is 4 ticks, so everyone has departed.
        assert_eq!(stats.live_sessions, 0);
        assert_eq!(stats.retired_sessions, 200);
        assert_eq!(stats.decisions, decisions);
        assert_eq!(stats.ticks, 4);
        assert_eq!(stats.action_hist.iter().sum::<u64>(), decisions);
        assert_eq!(stats.occupancy.iter().sum::<u64>(), stats.batches);
        // Every session decided once per tick of its lifetime.
        let total_steps: u64 = eng.session_digests().iter().map(|&(_, s, _)| s).sum();
        assert_eq!(total_steps, decisions);
        // Untimed engines report no latency.
        assert_eq!(eng.latency(), LatencyReport::default());
    }

    #[test]
    fn timed_run_reports_latency_and_identical_decisions() {
        let src = SyntheticSource::new(WorkloadKind::CcFlow);
        let ag = agent(WorkloadKind::CcFlow);
        let mk = |timed: bool| {
            let cfg = ServeConfig {
                shards: 2,
                max_batch: 32,
                timed,
                ..ServeConfig::default()
            };
            let mut eng = ServeEngine::new(ag.frozen(), src, cfg, 7);
            eng.admit(150, 2, 6);
            let noop = genet_telemetry::noop();
            for _ in 0..6 {
                eng.tick(noop);
            }
            eng
        };
        let cold = mk(false);
        let hot = mk(true);
        // Timing is observation-only.
        assert_eq!(cold.session_digests(), hot.session_digests());
        assert_eq!(cold.stats(), hot.stats());
        let lat = hot.latency();
        assert_eq!(lat.decisions, hot.stats().decisions);
        assert_eq!(lat.batches, hot.stats().batches);
        assert!(lat.p50_ns <= lat.p99_ns && lat.p99_ns <= lat.p999_ns);
        assert!(lat.mean_ns > 0);
    }

    #[test]
    fn tick_reports_serve_stage_with_exact_item_accounting() {
        use genet_telemetry::MemorySink;
        let ag = agent(WorkloadKind::LbRouter);
        let cfg = ServeConfig {
            shards: 4,
            max_batch: 8,
            timed: true,
            ..ServeConfig::default()
        };
        let mut eng = ServeEngine::new(
            ag.frozen(),
            SyntheticSource::new(WorkloadKind::LbRouter),
            cfg,
            3,
        );
        eng.admit(90, 3, 3);
        let sink = MemorySink::default();
        let t = eng.tick(&sink);
        assert_eq!(t.decisions, 90);
        let events = sink.events();
        let stage = events
            .iter()
            .find_map(|e| match e {
                Event::ParStage {
                    stage,
                    items,
                    busy_nanos,
                    busy_ns,
                    worker_items,
                    ..
                } if stage == SERVE_STAGE => {
                    Some((*items, *busy_nanos, busy_ns.clone(), worker_items.clone()))
                }
                _ => None,
            })
            .expect("tick must report a serve_batch ParStage");
        let (items, busy_nanos, busy_ns, worker_items) = stage;
        assert_eq!(items, 90);
        assert_eq!(worker_items.iter().sum::<u64>(), 90);
        assert_eq!(busy_ns.iter().sum::<u64>(), busy_nanos);
        assert!(busy_nanos > 0);
    }

    #[test]
    #[should_panic(expected = "source observation width")]
    fn mismatched_source_is_rejected() {
        let ag = agent(WorkloadKind::AbrPlayer);
        let _ = ServeEngine::new(
            ag.frozen(),
            SyntheticSource::new(WorkloadKind::CcFlow),
            ServeConfig::default(),
            0,
        );
    }
}
