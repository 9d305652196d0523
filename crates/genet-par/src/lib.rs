//! # genet-par
//!
//! The deterministic parallel execution engine shared by evaluation
//! (`genet-core::evaluate`), the rollout engine (`train_rl_with`), the
//! PPO update stage (`genet-rl::PpoAgent::update`), EI scoring and the
//! serving engine. Every batch runs through one private fan-out on
//! `std::thread::scope` (DESIGN.md §10).
//!
//! Everything here upholds one invariant: **the worker count is a pure
//! performance knob**. Work items derive their state from their index alone,
//! results are collected in input order, and reductions add floating-point
//! contributions in a fixed sequence — so neither `GENET_THREADS`, the
//! programmatic override, nor OS scheduling can alter a single bit of any
//! result (see DESIGN.md §10–§11 and the thread-invariance test suites).

#![forbid(unsafe_code)]

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Upper bound on any configured worker count (a sanity rail for
/// `GENET_THREADS`, far above real hardware).
const MAX_THREADS: usize = 1024;

/// Programmatic worker-count override (0 = unset). Used by tests and
/// benchmarks that sweep thread counts in-process; see
/// [`override_worker_threads`].
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `GENET_THREADS`, parsed and validated once per process. Invalid values
/// (non-integer, 0, or > [`MAX_THREADS`]) warn once on stderr and fall back
/// to the hardware default.
fn genet_threads_env() -> Option<usize> {
    static PARSED: OnceLock<Option<usize>> = OnceLock::new();
    *PARSED.get_or_init(|| match std::env::var("GENET_THREADS") {
        Err(_) => None,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(t) if (1..=MAX_THREADS).contains(&t) => Some(t),
            _ => {
                eprintln!(
                    "warning: ignoring invalid GENET_THREADS={raw:?} \
                     (expected an integer in 1..={MAX_THREADS})"
                );
                None
            }
        },
    })
}

/// Caps or forces the worker count of every subsequent parallel batch
/// (evaluation, rollout and the PPO update stage), taking precedence over
/// `GENET_THREADS` and the hardware default; `None` restores the
/// environment/hardware behaviour.
///
/// This is a test/bench hook for sweeping thread counts inside one process.
/// Worker counts never influence results (each work item derives its state
/// from its index alone), so flipping this concurrently with running
/// batches is observable only in telemetry.
pub fn override_worker_threads(threads: Option<usize>) {
    let v = threads.map_or(0, |t| t.clamp(1, MAX_THREADS));
    THREAD_OVERRIDE.store(v, Ordering::SeqCst);
}

/// Worker threads a batch of `n` items fans out over: the programmatic
/// override if set, else validated `GENET_THREADS`, else
/// `available_parallelism`; never more than `n`.
pub fn worker_count(n: usize) -> usize {
    let cap = match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => genet_threads_env().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        }),
        t => t,
    };
    cap.min(n).max(1)
}

/// The configured worker ceiling with no batch-size cap applied —
/// override → `GENET_THREADS` → hardware. What `BENCH_*.json` reports as
/// `threads`.
pub fn configured_threads() -> usize {
    worker_count(MAX_THREADS)
}

/// Worker accounting of one parallel batch, for its `par_stage` telemetry
/// event.
///
/// The per-worker vectors are indexed by worker (= shard) index, which is a
/// pure function of the batch size and the resolved worker count — never of
/// OS scheduling — so every field is deterministic given identical timing
/// inputs, and the vectors are empty when timing was not requested.
#[derive(Debug, Clone, Default)]
pub struct BatchProfile {
    /// Worker threads the batch actually used.
    pub workers: usize,
    /// Summed per-worker busy time (0 unless timing was requested).
    pub busy_nanos: u64,
    /// Per-worker busy nanoseconds in worker-index order (empty unless
    /// timing was requested).
    pub worker_busy: Vec<u64>,
    /// Per-worker items processed in worker-index order (empty unless
    /// timing was requested). For `par_map_profiled` an item is one work
    /// index; for [`fold_rows_ordered`] it is one parameter slot.
    pub worker_items: Vec<u64>,
}

impl BatchProfile {
    /// Folds another batch's accounting into this one, worker index by
    /// worker index (used by engines that run many batches per stage, e.g.
    /// the PPO update's minibatch loop). `workers` keeps the maximum,
    /// busy times and item counts accumulate.
    pub fn absorb(&mut self, other: &BatchProfile) {
        self.workers = self.workers.max(other.workers);
        self.busy_nanos += other.busy_nanos;
        if self.worker_busy.len() < other.worker_busy.len() {
            self.worker_busy.resize(other.worker_busy.len(), 0);
        }
        for (acc, v) in self.worker_busy.iter_mut().zip(other.worker_busy.iter()) {
            *acc += *v;
        }
        if self.worker_items.len() < other.worker_items.len() {
            self.worker_items.resize(other.worker_items.len(), 0);
        }
        for (acc, v) in self.worker_items.iter_mut().zip(other.worker_items.iter()) {
            *acc += *v;
        }
    }
}

/// Parallel deterministic map: applies `f` to each item index, preserving
/// order. `f` must be `Sync` (it is called from many threads).
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_profiled(n, f, false).0
}

/// The chunk rule of every batch: `n` items on `threads` workers are cut
/// into contiguous chunks of this many items (the last may be shorter), and
/// chunk `k` — worker `k`'s share — holds items `k * len ..`. A pure
/// function of `(n, threads)`. A batch reports `ceil(n / len)` workers, and
/// feeding that count back in gives the same `len`, which is what lets
/// [`sum_per_worker`] regroup a finished batch.
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// The one fan-out under every batch of this crate. Cuts `items` into
/// chunks by [`chunk_len`], runs `work(first_index, chunk)` on chunk 0 on
/// the calling thread and on every other chunk on a scoped thread of its
/// own, and returns each chunk's output in chunk order plus the
/// [`BatchProfile`] (clocks are read only when `timed`).
///
/// A panic in any chunk reaches the caller with its original payload:
/// chunk 0 unwinds through the scope, which first joins the other chunks,
/// and a spawned chunk's panic is re-raised when its handle is joined.
fn fan_out<I, R, W>(items: &mut [I], threads: usize, timed: bool, work: W) -> (Vec<R>, BatchProfile)
where
    I: Send,
    R: Send,
    W: Fn(usize, &mut [I]) -> R + Sync,
{
    if items.is_empty() {
        return (Vec::new(), BatchProfile::default());
    }
    let len = chunk_len(items.len(), threads);
    let run = |k: usize, chunk: &mut [I]| {
        let t0 = timed.then(Instant::now);
        let out = work(k * len, chunk);
        let busy = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        (out, busy, chunk.len() as u64)
    };
    let (first, rest) = items.split_at_mut(len);
    let chunks = std::thread::scope(|s| {
        let run = &run;
        let spawned: Vec<_> = rest
            .chunks_mut(len)
            .enumerate()
            .map(|(k, chunk)| s.spawn(move || run(k + 1, chunk)))
            .collect();
        let mut chunks = vec![run(0, first)];
        for handle in spawned {
            chunks.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        chunks
    });
    let mut profile = BatchProfile {
        workers: chunks.len(),
        ..BatchProfile::default()
    };
    let mut outs = Vec::with_capacity(chunks.len());
    for (out, busy, count) in chunks {
        outs.push(out);
        if timed {
            profile.busy_nanos += busy;
            profile.worker_busy.push(busy);
            profile.worker_items.push(count);
        }
    }
    (outs, profile)
}

/// Maps `f` over `0..n` across [`worker_count`] threads and returns the
/// results in input order plus a [`BatchProfile`]. Busy-time is only
/// measured when `timed` (callers with disabled telemetry read no clock).
///
/// Determinism: item `i`'s result depends only on `i` (`f` is `Sync` and
/// receives nothing else), each worker maps one contiguous index range, and
/// the ranges' outputs are concatenated in range order — so neither the
/// worker count nor OS scheduling can reorder or alter the output.
pub fn par_map_profiled<T, F>(n: usize, f: F, timed: bool) -> (Vec<T>, BatchProfile)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_sharded(n, || (), |i, _| f(i), timed)
}

/// [`par_map_profiled`] with per-worker scratch state: each worker calls
/// `make_state` exactly once and threads the resulting value through every
/// item of its contiguous index range. This is the engine under scoring
/// loops whose per-item work needs reusable buffers (the EI candidate pool
/// keeps one `GpScratch` per worker, DESIGN.md §15).
///
/// Determinism contract: `f(i, state)` must produce bit-identical results
/// for any prior state history — the state is a *scratch*, fully
/// overwritten per item, never an accumulator. Under that contract the
/// shard boundaries (which follow [`worker_count`], the sanctioned
/// shard-shaper) cannot alter a single output bit, so the worker count
/// stays a pure performance knob.
pub fn par_map_sharded<T, S, I, F>(
    n: usize,
    make_state: I,
    f: F,
    timed: bool,
) -> (Vec<T>, BatchProfile)
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = worker_count(n);
    // A slice of `()` (no allocation) carries the index range.
    let (chunks, profile) = fan_out(&mut vec![(); n], threads, timed, |lo, range| {
        let mut state = make_state();
        (lo..lo + range.len())
            .map(|i| f(i, &mut state))
            .collect::<Vec<T>>()
    });
    (chunks.into_iter().flatten().collect(), profile)
}

/// Maps session id `sid` onto one of `shards` shards — the canonical
/// shard-shaping function of the policy-serving engine (`genet-serve`,
/// DESIGN.md §16). A pure function of `(sid, shards)`: a Fibonacci
/// multiplicative hash decorrelates structured id streams (sequential
/// admission, strided tenants) before the modulo, and nothing else — no
/// clock, no RNG, no load feedback — so a session's home shard is
/// reproducible from its id alone at any fixed shard count.
///
/// Determinism across *different* shard counts is the caller's contract:
/// per-session results must depend only on per-session state (the serving
/// engine guarantees this via the batched kernels' per-row bit-equality),
/// so re-sharding regroups work without altering any decision.
///
/// # Panics
/// Panics if `shards == 0`.
pub fn session_shard(sid: u64, shards: usize) -> usize {
    assert!(shards > 0, "session_shard needs at least one shard");
    let mixed = sid.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The remainder is < shards ≤ MAX_THREADS, so the cast is lossless.
    (mixed % (shards as u64)) as usize
}

/// The mutable-shard analogue of [`par_map_profiled`]: applies `f` to every
/// element of `items` **in place** — `f(i, &mut items[i])` — across
/// [`worker_count`] threads, returning `f`'s outputs in input order plus a
/// [`BatchProfile`]. This is the fan-out under engines whose per-shard
/// state is long-lived and mutated every batch (the serving engine's
/// session stores), where [`par_map`]'s `Fn(usize) -> T` shape would force
/// interior mutability.
///
/// Determinism: element `i` is visited by exactly one worker (disjoint
/// chunks), `f` receives only the index and that element, and outputs are
/// collected in index order — so the worker count remains a pure
/// performance knob provided `f` itself is index/element-pure.
pub fn par_map_mut_profiled<T, R, F>(items: &mut [T], f: F, timed: bool) -> (Vec<R>, BatchProfile)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let threads = worker_count(items.len());
    let (chunks, profile) = fan_out(items, threads, timed, |lo, chunk| {
        chunk
            .iter_mut()
            .enumerate()
            .map(|(j, item)| f(lo + j, item))
            .collect::<Vec<R>>()
    });
    (chunks.into_iter().flatten().collect(), profile)
}

/// Sums the per-item `weights` of a finished batch by worker: entry `k`
/// totals the items worker `k` ran, for a batch of `weights.len()` items
/// that reported `workers` workers — the engine's own chunk rule, applied
/// after the fact. Lets an engine whose work items are coarse re-express a
/// [`BatchProfile`]'s `worker_items` in finer units (the serving engine
/// fans out whole shards but counts decisions). Empty for empty `weights`.
pub fn sum_per_worker(weights: &[u64], workers: usize) -> Vec<u64> {
    weights
        .chunks(chunk_len(weights.len(), workers))
        .map(|chunk| chunk.iter().sum())
        .collect()
}

/// Runs `f` on the calling thread, measuring its busy time only when
/// `timed` — the 1-worker analogue of [`par_map_profiled`]'s accounting,
/// for serial work that wants the same busy-time bookkeeping.
pub fn time_serial<T>(timed: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = timed.then(Instant::now);
    let out = f();
    (out, t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64))
}

/// Below this many element-additions the scoped-thread spawn cost exceeds
/// the fold itself; a serial fold is both faster and trivially in-order.
const FOLD_PAR_THRESHOLD: usize = 1 << 16;

/// Ordered row reduction: `out[p] += Σ_s rows[s][p]`, with the additions
/// into each `out[p]` performed **strictly in ascending row order** — the
/// exact floating-point sequence a serial per-sample accumulation would
/// produce. Parallelism comes from partitioning the *parameter axis* into
/// disjoint ranges: each worker folds every row's slice of its range in row
/// order, so the per-parameter addition sequence is identical for any
/// worker count or partition (only *independent* sums run concurrently).
///
/// This is the fixed-order reduction genet-lint's
/// `unordered-float-reduction` rule points parallel code at: a closure
/// that would add floats into shared state returns per-item rows instead,
/// and the caller folds them here (DESIGN.md §11, §13).
///
/// # Panics
/// Panics if any row's length differs from `out.len()`.
pub fn fold_rows_ordered(rows: &[&[f32]], out: &mut [f32], timed: bool) -> BatchProfile {
    for (s, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), out.len(), "row {s} length mismatch");
    }
    if rows.is_empty() || out.is_empty() {
        return BatchProfile {
            workers: 1,
            ..BatchProfile::default()
        };
    }
    let small = rows.len().saturating_mul(out.len()) < FOLD_PAR_THRESHOLD;
    let threads = if small { 1 } else { worker_count(out.len()) };
    let (_, profile) = fan_out(out, threads, timed, |lo, chunk| {
        let hi = lo + chunk.len();
        for row in rows {
            for (o, v) in chunk.iter_mut().zip(&row[lo..hi]) {
                *o += *v;
            }
        }
    });
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn worker_count_is_bounded() {
        for n in [1usize, 2, 7, 1000] {
            let w = worker_count(n);
            assert!(w >= 1 && w <= n, "worker_count({n}) = {w}");
        }
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn fold_rows_ordered_matches_serial_bitwise() {
        // Rows big enough to clear FOLD_PAR_THRESHOLD so the parallel path
        // actually runs under multi-core hosts.
        let p = 1 << 12;
        let n = 64;
        let rows_data: Vec<Vec<f32>> = (0..n)
            .map(|s| {
                (0..p)
                    .map(|j| ((s * 31 + j * 7) % 1000) as f32 * 1e-3 - 0.5)
                    .collect()
            })
            .collect();
        let rows: Vec<&[f32]> = rows_data.iter().map(|r| r.as_slice()).collect();

        let mut serial = vec![0.0f32; p];
        for row in &rows_data {
            for (o, v) in serial.iter_mut().zip(row.iter()) {
                *o += *v;
            }
        }
        for threads in [Some(1), Some(2), Some(7), None] {
            override_worker_threads(threads);
            let mut out = vec![0.0f32; p];
            fold_rows_ordered(&rows, &mut out, false);
            override_worker_threads(None);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "fold diverged at threads={threads:?}");
        }
    }

    #[test]
    fn par_map_sharded_matches_unsharded_at_any_thread_count() {
        // A scratch-using map (the scratch buffer is fully overwritten per
        // item) must give identical results for every worker count.
        let reference: Vec<u64> = (0..97).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [Some(1), Some(2), Some(8), None] {
            override_worker_threads(threads);
            let (out, profile) = par_map_sharded(
                97,
                || vec![0u64; 4],
                |i, scratch| {
                    for (j, s) in scratch.iter_mut().enumerate() {
                        *s = i as u64 + j as u64;
                    }
                    scratch[0] * 3 + 1
                },
                true,
            );
            override_worker_threads(None);
            assert_eq!(out, reference, "diverged at threads={threads:?}");
            assert_eq!(profile.worker_items.iter().sum::<u64>(), 97);
            assert_eq!(profile.worker_busy.len(), profile.workers);
        }
    }

    #[test]
    fn par_map_sharded_empty_and_state_per_worker() {
        let (out, profile) = par_map_sharded(0, || (), |i, _| i, true);
        assert!(out.is_empty());
        assert_eq!(profile.workers, 0);
        // Each worker creates exactly one state: with 3 forced workers over
        // 9 items, item results see a fresh (zeroed) scratch only at shard
        // starts if f were stateful — our contract forbids relying on that,
        // but the engine must still hand every item *some* state.
        override_worker_threads(Some(3));
        let (out, _) = par_map_sharded(9, || 0usize, |i, _| i, false);
        override_worker_threads(None);
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_visits_every_item_once_at_any_thread_count() {
        for threads in [Some(1), Some(2), Some(8), None] {
            override_worker_threads(threads);
            let mut items: Vec<u64> = (0..101).map(|i| i as u64).collect();
            let (outs, profile) = par_map_mut_profiled(
                &mut items,
                |i, item| {
                    *item += 1;
                    (i as u64) * 2
                },
                true,
            );
            override_worker_threads(None);
            let expect_items: Vec<u64> = (1..=101).collect();
            let expect_outs: Vec<u64> = (0..101).map(|i| i * 2).collect();
            assert_eq!(items, expect_items, "mutation diverged at {threads:?}");
            assert_eq!(outs, expect_outs, "outputs diverged at {threads:?}");
            assert_eq!(profile.worker_items.iter().sum::<u64>(), 101);
            assert_eq!(profile.worker_busy.len(), profile.workers);
            assert_eq!(profile.worker_busy.iter().sum::<u64>(), profile.busy_nanos);
        }
    }

    #[test]
    fn par_map_mut_empty_and_untimed() {
        let mut items: Vec<u8> = Vec::new();
        let (outs, profile) = par_map_mut_profiled(&mut items, |i, _| i, true);
        assert!(outs.is_empty());
        assert_eq!(profile.workers, 0);
        let mut items = vec![0u8; 5];
        let (_, profile) = par_map_mut_profiled(&mut items, |_, v| *v = 1, false);
        assert_eq!(items, vec![1u8; 5]);
        assert_eq!(profile.busy_nanos, 0);
        assert!(profile.worker_busy.is_empty());
        assert!(profile.worker_items.is_empty());
    }

    #[test]
    fn session_shard_is_pure_bounded_and_balanced() {
        for shards in [1usize, 2, 7, 8, 64] {
            let mut counts = vec![0u64; shards];
            for sid in 0..10_000u64 {
                let s = session_shard(sid, shards);
                assert!(s < shards);
                assert_eq!(s, session_shard(sid, shards), "not pure");
                counts[s] += 1;
            }
            // The Fibonacci hash keeps sequential ids roughly uniform: no
            // shard more than 2x the ideal share.
            let ideal = 10_000u64 / shards as u64;
            for (s, c) in counts.iter().enumerate() {
                assert!(*c <= ideal * 2, "shard {s}/{shards} got {c} of {ideal}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn session_shard_rejects_zero_shards() {
        session_shard(1, 0);
    }

    #[test]
    fn fold_rows_ordered_handles_empty() {
        let mut out = vec![1.0f32; 4];
        let profile = fold_rows_ordered(&[], &mut out, false);
        assert_eq!(profile.workers, 1);
        assert_eq!(out, vec![1.0f32; 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_rows_ordered_rejects_ragged_rows() {
        let row = vec![1.0f32; 3];
        let mut out = vec![0.0f32; 4];
        fold_rows_ordered(&[&row], &mut out, false);
    }

    #[test]
    fn time_serial_only_reads_clock_when_asked() {
        let (v, nanos) = time_serial(false, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(nanos, 0);
        let (v, _nanos) = time_serial(true, || "ok");
        assert_eq!(v, "ok");
    }

    #[test]
    fn par_map_profiled_reports_workers() {
        let (out, profile) = par_map_profiled(64, |i| i + 1, false);
        assert_eq!(out.len(), 64);
        assert!(profile.workers >= 1 && profile.workers <= 64);
        assert_eq!(profile.busy_nanos, 0);
        // Untimed batches record no per-worker detail.
        assert!(profile.worker_busy.is_empty());
        assert!(profile.worker_items.is_empty());
        let (empty, profile) = par_map_profiled(0, |i| i, true);
        assert!(empty.is_empty());
        assert_eq!(profile.workers, 0);
    }

    #[test]
    fn timed_batches_record_per_worker_accounting() {
        for threads in [Some(1), Some(3)] {
            override_worker_threads(threads);
            let (out, profile) = par_map_profiled(10, |i| i, true);
            override_worker_threads(None);
            assert_eq!(out.len(), 10);
            assert_eq!(profile.worker_busy.len(), profile.workers);
            assert_eq!(profile.worker_items.len(), profile.workers);
            assert_eq!(profile.worker_items.iter().sum::<u64>(), 10);
            assert_eq!(profile.worker_busy.iter().sum::<u64>(), profile.busy_nanos);
        }
    }

    #[test]
    fn absorb_accumulates_by_worker_index() {
        let mut acc = BatchProfile::default();
        acc.absorb(&BatchProfile {
            workers: 2,
            busy_nanos: 30,
            worker_busy: vec![10, 20],
            worker_items: vec![3, 2],
        });
        acc.absorb(&BatchProfile {
            workers: 3,
            busy_nanos: 60,
            worker_busy: vec![10, 20, 30],
            worker_items: vec![1, 1, 1],
        });
        assert_eq!(acc.workers, 3);
        assert_eq!(acc.busy_nanos, 90);
        assert_eq!(acc.worker_busy, vec![20, 40, 30]);
        assert_eq!(acc.worker_items, vec![4, 3, 1]);
    }

    /// The chunks, as index ranges, of a batch of `n` items that reported
    /// `workers` workers, written out from the chunk rule: `ceil(n /
    /// workers)` items each, the last one shorter.
    fn chunk_rule(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
        let len = n.div_ceil(workers);
        (0..workers)
            .map(|k| k * len..n.min((k + 1) * len))
            .collect()
    }

    #[test]
    fn every_wrapper_times_the_chunk_rule() {
        for n in [1usize, 2, 7, 97] {
            // Enough rows to clear FOLD_PAR_THRESHOLD, so the fold fans out.
            let row = vec![1.0f32; n];
            let rows = vec![row.as_slice(); FOLD_PAR_THRESHOLD.div_ceil(n)];
            let weights: Vec<u64> = (1..=n as u64).collect();
            for threads in [1usize, 2, 3, 8] {
                override_worker_threads(Some(threads));
                let profiles = [
                    par_map_profiled(n, |i| i, true).1,
                    par_map_sharded(n, || (), |i, _| i, true).1,
                    par_map_mut_profiled(&mut vec![0u8; n], |i, _| i, true).1,
                    fold_rows_ordered(&rows, &mut vec![0.0f32; n], true),
                ];
                override_worker_threads(None);
                // Other tests move the process-wide override concurrently,
                // so check against the worker count each batch reports.
                for p in profiles {
                    let chunks = chunk_rule(n, p.workers);
                    let items: Vec<u64> = chunks.iter().map(|c| c.len() as u64).collect();
                    assert_eq!(p.worker_items, items, "n={n} threads={threads}");
                    assert_eq!(p.worker_busy.len(), p.workers);
                    // The serve regroup helper sums per-item weights into
                    // the same chunks.
                    let sums: Vec<u64> = chunks
                        .iter()
                        .map(|c| weights[c.clone()].iter().sum())
                        .collect();
                    assert_eq!(sum_per_worker(&weights, p.workers), sums);
                }
            }
        }
        assert!(sum_per_worker(&[], 3).is_empty());
    }

    #[test]
    fn chunk_zero_runs_on_the_caller() {
        let me = std::thread::current().id();
        let (ids, profile) = fan_out(&mut [(); 8], 4, false, |_, _| std::thread::current().id());
        assert_eq!(profile.workers, 4);
        assert_eq!(ids[0], me);
        assert!(ids[1..].iter().all(|id| *id != me));
    }

    /// Runs `f` and asserts it panicked with the original `"boom"` payload.
    fn assert_boom(f: impl FnOnce()) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the batch swallowed a worker panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn worker_panics_propagate_from_every_wrapper() {
        // Item 0 is in chunk 0, on the calling thread; item 7 is in the last
        // chunk, on a spawned thread whenever the batch fans out (always for
        // the direct `fan_out` call, whose worker count is explicit).
        for bad in [0usize, 7] {
            let boom = |i: usize| {
                if i == bad {
                    panic!("boom");
                }
            };
            override_worker_threads(Some(4));
            assert_boom(|| {
                fan_out(&mut [(); 8], 4, true, |lo, c| {
                    (lo..lo + c.len()).for_each(boom)
                });
            });
            assert_boom(|| {
                par_map_profiled(8, boom, true);
            });
            assert_boom(|| {
                par_map_sharded(8, || (), |i, _| boom(i), false);
            });
            assert_boom(|| {
                par_map_mut_profiled(&mut [0u8; 8], |i, _| boom(i), true);
            });
            override_worker_threads(None);
        }
    }
}
