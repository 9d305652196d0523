//! Criterion micro-benchmarks of the hand-rolled RL substrate, including
//! the scalar-vs-batched MLP kernel comparison that motivates the parallel
//! PPO update engine (DESIGN.md §11).

use criterion::{criterion_group, criterion_main, Criterion};
use genet::rl::{Mlp, MlpBatchScratch, PpoAgent, PpoConfig, RolloutBuffer, StepMeta};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_mlp(c: &mut Criterion) {
    let mlp = Mlp::new(&[20, 32, 16, 9], 0);
    let mut scratch = mlp.scratch();
    let input = vec![0.3f32; 20];
    c.bench_function("mlp_forward_20x32x16x9", |b| {
        b.iter(|| {
            let out = mlp.forward(black_box(&input), &mut scratch);
            black_box(out[0])
        })
    });
    let mut grads = vec![0.0f32; mlp.param_count()];
    c.bench_function("mlp_forward_backward", |b| {
        b.iter(|| {
            let out = mlp.forward(black_box(&input), &mut scratch).to_vec();
            mlp.backward(&out, &mut scratch, &mut grads);
            black_box(grads[0])
        })
    });
}

/// Scalar per-sample forward/backward vs the batched kernels on the same
/// 32-sample batch. The batched variants amortize the per-call layer walk
/// and keep weights hot across rows.
fn bench_mlp_batch(c: &mut Criterion) {
    const BATCH: usize = 32;
    const DIM: usize = 20;
    const OUT: usize = 9;
    let mlp = Mlp::new(&[DIM, 32, 16, OUT], 0);
    let inputs: Vec<f32> = (0..BATCH * DIM).map(|i| (i % 17) as f32 * 0.05).collect();

    c.bench_function("mlp_forward_scalar_x32", |b| {
        let mut scratch = mlp.scratch();
        b.iter(|| {
            let mut acc = 0.0f32;
            for s in 0..BATCH {
                let out = mlp.forward(black_box(&inputs[s * DIM..(s + 1) * DIM]), &mut scratch);
                acc += out[0];
            }
            black_box(acc)
        })
    });
    c.bench_function("mlp_forward_batch_x32", |b| {
        let mut scratch = MlpBatchScratch::default();
        b.iter(|| {
            let out = mlp.forward_batch(black_box(&inputs), BATCH, &mut scratch);
            black_box(out[0])
        })
    });

    let gouts: Vec<f32> = (0..BATCH * OUT)
        .map(|i| (i % 7) as f32 * 0.01 - 0.02)
        .collect();
    c.bench_function("mlp_backward_scalar_x32", |b| {
        let mut scratch = mlp.scratch();
        let mut grads = vec![0.0f32; mlp.param_count()];
        b.iter(|| {
            grads.iter_mut().for_each(|g| *g = 0.0);
            for s in 0..BATCH {
                mlp.forward(black_box(&inputs[s * DIM..(s + 1) * DIM]), &mut scratch);
                mlp.backward(&gouts[s * OUT..(s + 1) * OUT], &mut scratch, &mut grads);
            }
            black_box(grads[0])
        })
    });
    c.bench_function("mlp_backward_batch_x32", |b| {
        let mut scratch = MlpBatchScratch::default();
        let mut grads = vec![0.0f32; mlp.param_count()];
        b.iter(|| {
            grads.iter_mut().for_each(|g| *g = 0.0);
            mlp.forward_batch(black_box(&inputs), BATCH, &mut scratch);
            mlp.backward_batch_accum(&gouts, BATCH, &mut scratch, &mut grads);
            black_box(grads[0])
        })
    });
}

fn fill_buffer(buffer: &mut RolloutBuffer) {
    for i in 0..1024usize {
        buffer.push_step(
            &vec![(i % 17) as f32 * 0.05; 20],
            StepMeta {
                action: i % 9,
                log_prob: -2.2,
                value: 0.1,
                reward: ((i % 5) as f32 - 2.0) * 0.3,
                done: i % 128 == 127,
            },
        );
    }
}

fn bench_ppo_update(c: &mut Criterion) {
    c.bench_function("ppo_update_1024_transitions", |b| {
        let mut agent = PpoAgent::new(20, 9, PpoConfig::default(), 0);
        let mut rng = StdRng::seed_from_u64(0);
        b.iter(|| {
            let mut buffer = RolloutBuffer::new();
            fill_buffer(&mut buffer);
            black_box(agent.update(&mut buffer, &mut rng))
        })
    });
}

criterion_group!(benches, bench_mlp, bench_mlp_batch, bench_ppo_update);
criterion_main!(benches);
