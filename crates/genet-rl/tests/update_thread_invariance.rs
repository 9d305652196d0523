//! The parallel PPO *update* engine's core guarantee, mirroring the rollout
//! engine's (`genet-core/tests/thread_invariance.rs`): the worker count is a
//! pure performance knob. Starting from identical weights and an identical
//! pre-filled `RolloutBuffer`, `update` must produce bit-identical weights
//! and `UpdateStats` whether each minibatch's actor and critic passes run
//! on the calling thread (1 worker) or on two workers, at any forced or
//! hardware-default count — because each network's gradient is summed by
//! one pass in ascending sample order, and the two passes share no mutable
//! state (DESIGN.md §11).
//!
//! Buffer lengths cover several full 256-sample minibatches with a ragged
//! tail (700), a tail minibatch of one sample (257) and a buffer shorter
//! than one minibatch (100).
//!
//! Agreement between worker counts cannot see a change that moves every
//! count alike (a reordered shuffle draw or gradient sum), so the 1-worker
//! fingerprint of each buffer length is also pinned to a recorded FNV-1a
//! hash of its bits. The fingerprint includes the RNG's next draw after the
//! update, since training goes on to sample configurations from it.
//!
//! All scenarios run inside a single `#[test]` so the global
//! `override_worker_threads` hook is never mutated by two tests at once.

use genet_par::override_worker_threads;
use genet_rl::{PpoAgent, PpoConfig, RolloutBuffer, StepMeta, UpdateStats};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const OBS_DIM: usize = 12;

const ACTIONS: usize = 5;

/// FNV-1a of the 1-worker fingerprint per buffer length. A change to the
/// update's shuffle draws or RNG use, gradient sums, Adam steps or stat
/// chains moves these.
const GOLDEN_FNV1A: [(usize, u64); 3] = [
    (700, 0x1d17_fce3_6263_72c1),
    (257, 0x78fb_6c09_4f5d_3d16),
    (100, 0x3541_6a78_e998_cc65),
];

/// Deterministic synthetic rollout of `len` steps: several "episodes" of
/// varying length with exercised done flags, varied rewards and
/// non-uniform observations.
fn fill_buffer(buffer: &mut RolloutBuffer, len: usize) {
    let mut obs = vec![0.0f32; OBS_DIM];
    for i in 0..len {
        for (j, o) in obs.iter_mut().enumerate() {
            *o = (((i * 31 + j * 17) % 97) as f32) * 0.021 - 1.0;
        }
        buffer.push_step(
            &obs,
            StepMeta {
                action: (i * 7) % ACTIONS,
                log_prob: -1.6 - ((i % 13) as f32) * 0.05,
                value: ((i % 11) as f32) * 0.1 - 0.5,
                reward: ((i % 5) as f32 - 2.0) * 0.4,
                done: i % 89 == 88 || i + 1 == len,
            },
        );
    }
}

#[derive(PartialEq, Debug)]
struct UpdateFingerprint {
    actor_bits: Vec<u32>,
    critic_bits: Vec<u32>,
    stat_bits: [u32; 4],
    /// The update RNG's next `u64` after the update.
    rng_next: u64,
}

fn stat_bits(s: &UpdateStats) -> [u32; 4] {
    [
        s.policy_loss.to_bits(),
        s.value_loss.to_bits(),
        s.entropy.to_bits(),
        s.approx_kl.to_bits(),
    ]
}

impl UpdateFingerprint {
    /// FNV-1a (64-bit) over the little-endian bytes of the actor, critic
    /// and stat bits and then the RNG's next draw, in that order.
    fn fnv1a(&self) -> u64 {
        let bytes = self
            .actor_bits
            .iter()
            .chain(&self.critic_bits)
            .chain(&self.stat_bits)
            .flat_map(|w| w.to_le_bytes());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in bytes.chain(self.rng_next.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn update_fingerprint(len: usize, threads: Option<usize>) -> UpdateFingerprint {
    override_worker_threads(threads);
    let mut agent = PpoAgent::new(OBS_DIM, ACTIONS, PpoConfig::default(), 77);
    let mut buffer = RolloutBuffer::new();
    fill_buffer(&mut buffer, len);
    // Same RNG seed at every thread count — the minibatch shuffle must be
    // the only RNG consumer during the update.
    let mut rng = StdRng::seed_from_u64(123);
    let stats = agent.update(&mut buffer, &mut rng);
    override_worker_threads(None);
    UpdateFingerprint {
        actor_bits: agent.actor_params().iter().map(|p| p.to_bits()).collect(),
        critic_bits: agent.critic_params().iter().map(|p| p.to_bits()).collect(),
        stat_bits: stat_bits(&stats),
        rng_next: rng.next_u64(),
    }
}

#[test]
fn update_from_fixed_buffer_is_thread_count_invariant() {
    let fresh = PpoAgent::new(OBS_DIM, ACTIONS, PpoConfig::default(), 77);
    for (len, golden) in GOLDEN_FNV1A {
        let serial = update_fingerprint(len, Some(1));
        assert_eq!(
            serial.fnv1a(),
            golden,
            "len {len}: update bits moved from the recorded fingerprint"
        );
        let two = update_fingerprint(len, Some(2));
        let eight = update_fingerprint(len, Some(8));
        let default = update_fingerprint(len, None);
        assert!(
            !serial.actor_bits.is_empty() && !serial.critic_bits.is_empty(),
            "degenerate fingerprint"
        );
        let fresh_actor: Vec<u32> = fresh.actor_params().iter().map(|p| p.to_bits()).collect();
        assert_ne!(
            serial.actor_bits, fresh_actor,
            "len {len}: update moved nothing"
        );
        assert_eq!(
            serial, two,
            "len {len}: 1 vs 2 workers diverged — update depends on thread count"
        );
        assert_eq!(serial, eight, "len {len}: 1 vs 8 workers diverged");
        assert_eq!(
            serial, default,
            "len {len}: 1 worker vs hardware default diverged"
        );
    }
}
