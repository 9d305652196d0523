//! Dense feed-forward network with manual backpropagation.
//!
//! Layout: all layers' weights and biases live in one flat `Vec<f32>` so the
//! Adam optimizer can treat the network as a single parameter vector.
//! Hidden activations are `tanh` (what Pensieve/Aurora-scale policy nets
//! typically use at this size), computed by the crate's own bit-exact port
//! of fdlibm `tanhf` (`crate::activation`) rather than the host libm; the
//! output layer is linear — the softmax / value interpretation is applied
//! by the caller.

use crate::activation::tanh_in_place;
use genet_math::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Register-block width of the batched kernels: this many batch lanes are
/// processed together, each lane owning one scalar accumulator that lives
/// in a register for the whole reduction. 8 × f32 = two 128-bit or one
/// 256-bit vector register — wide enough to saturate the FP units, small
/// enough that LLVM keeps the block entirely in registers.
const LANES: usize = 8;

/// A multi-layer perceptron: `sizes[0]` inputs, tanh hidden layers, linear
/// outputs of width `sizes.last()`.
#[derive(Debug, Clone)]
pub struct Mlp {
    sizes: Vec<usize>,
    /// Flat parameters: for each layer, weights (out×in, row-major) then
    /// biases (out).
    params: Vec<f32>,
    /// Offset of each layer's weight block in `params`.
    w_off: Vec<usize>,
    /// Offset of each layer's bias block in `params`.
    b_off: Vec<usize>,
}

/// Scratch space for one forward/backward pass, reusable across samples.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Post-activation values per layer (`acts[0]` is the input copy).
    acts: Vec<Vec<f32>>,
    /// Backpropagated deltas per layer.
    deltas: Vec<Vec<f32>>,
}

/// Scratch space for one batched forward/backward pass. Internally the
/// activations and deltas live *unit-major* (transposed: element `(unit i,
/// sample s)` at `i * batch + s`), so the hot kernel loops iterate across
/// the batch axis — independent samples, one per SIMD lane — while each
/// lane replays the exact scalar floating-point sequence. The public
/// inputs/outputs of [`Mlp::forward_batch`] / [`Mlp::backward_batch_accum`]
/// stay sample-major; the kernels transpose at the (small) input/output
/// edges only. Grows on demand and is reusable across minibatches of any
/// size.
#[derive(Debug, Clone, Default)]
pub struct MlpBatchScratch {
    /// Sample capacity the buffers are currently sized for.
    batch: usize,
    /// Post-activation values per layer, unit-major `sizes[l] × batch`.
    acts: Vec<Vec<f32>>,
    /// Backpropagated deltas per layer, same layout.
    deltas: Vec<Vec<f32>>,
    /// Sample-major copy of the last layer's outputs (the API return).
    out: Vec<f32>,
    /// Sample-major staging copy of one layer's activations for the
    /// weight-gradient kernel (`batch × layer width`): the weight rows are
    /// contiguous per output, so the kernel wants each sample's inputs
    /// contiguous too — a 13 KB transpose buys a vectorized inner loop.
    xt: Vec<f32>,
    /// Sample-major staging copy of one layer's deltas, same purpose.
    dt: Vec<f32>,
}

impl MlpBatchScratch {
    fn ensure(&mut self, sizes: &[usize], batch: usize) {
        // genet-lint: allow(panic-in-library) sizes is non-empty by construction (asserted in the constructor)
        let out_width = *sizes.last().unwrap();
        if self.acts.len() == sizes.len()
            && self.batch >= batch
            && self
                .acts
                .iter()
                .zip(sizes)
                .all(|(a, &n)| a.len() >= self.batch * n)
        {
            self.out.resize(self.batch * out_width, 0.0);
            return;
        }
        let cap = batch.max(self.batch);
        let widest = sizes.iter().copied().max().unwrap_or(0);
        self.acts = sizes.iter().map(|&s| vec![0.0; cap * s]).collect();
        self.deltas = sizes.iter().map(|&s| vec![0.0; cap * s]).collect();
        self.out = vec![0.0; cap * out_width];
        self.xt = vec![0.0; cap * widest];
        self.dt = vec![0.0; cap * widest];
        self.batch = cap;
    }
}

/// Copies a unit-major `width × batch` buffer into sample-major rows
/// (`batch × width`). Pure data movement — no arithmetic, so it cannot
/// perturb any floating-point sequence.
fn transpose_to_rows(src: &[f32], batch: usize, width: usize, dst: &mut [f32]) {
    for (s, row) in dst[..batch * width].chunks_exact_mut(width).enumerate() {
        for (o, v) in row.iter_mut().enumerate() {
            *v = src[o * batch + s];
        }
    }
}

impl Mlp {
    /// Creates a network with Xavier/Glorot-uniform initialization.
    ///
    /// # Panics
    /// Panics if fewer than two sizes (need at least input and output).
    pub fn new(sizes: &[usize], seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "zero-width layer");
        let mut w_off = Vec::new();
        let mut b_off = Vec::new();
        let mut total = 0usize;
        for l in 0..sizes.len() - 1 {
            w_off.push(total);
            total += sizes[l + 1] * sizes[l];
            b_off.push(total);
            total += sizes[l + 1];
        }
        let mut params = vec![0.0f32; total];
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x31A9));
        for l in 0..sizes.len() - 1 {
            let (fan_in, fan_out) = (sizes[l] as f32, sizes[l + 1] as f32);
            let bound = (6.0 / (fan_in + fan_out)).sqrt();
            let w = &mut params[w_off[l]..w_off[l] + sizes[l + 1] * sizes[l]];
            for v in w {
                *v = rng.random_range(-bound..bound);
            }
            // Biases start at zero.
        }
        Self {
            sizes: sizes.to_vec(),
            params,
            w_off,
            b_off,
        }
    }

    /// Layer sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        // genet-lint: allow(panic-in-library) sizes is non-empty by construction (asserted in the constructor)
        *self.sizes.last().unwrap()
    }

    /// Number of parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Flat parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable flat parameter vector (used by the optimizer).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Allocates scratch space sized for this network.
    pub fn scratch(&self) -> MlpScratch {
        MlpScratch {
            acts: self.sizes.iter().map(|&s| vec![0.0; s]).collect(),
            deltas: self.sizes.iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Forward pass; leaves intermediate activations in `scratch` for a
    /// subsequent [`Mlp::backward`] and returns the output slice.
    pub fn forward<'s>(&self, input: &[f32], scratch: &'s mut MlpScratch) -> &'s [f32] {
        assert_eq!(input.len(), self.sizes[0], "input dim mismatch");
        scratch.acts[0].copy_from_slice(input);
        let n_layers = self.sizes.len() - 1;
        for l in 0..n_layers {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let w = &self.params[self.w_off[l]..self.w_off[l] + n_out * n_in];
            let b = &self.params[self.b_off[l]..self.b_off[l] + n_out];
            // Split borrow: acts[l] is read, acts[l+1] written.
            let (lo, hi) = scratch.acts.split_at_mut(l + 1);
            let x = &lo[l];
            let y = &mut hi[0];
            for o in 0..n_out {
                let row = &w[o * n_in..(o + 1) * n_in];
                let mut acc = b[o];
                for (wi, xi) in row.iter().zip(x.iter()) {
                    acc += wi * xi;
                }
                y[o] = acc;
            }
            // Hidden layers get tanh; the final layer stays linear.
            if l + 1 < self.sizes.len() - 1 {
                tanh_in_place(y);
            }
        }
        // genet-lint: allow(panic-in-library) scratch always holds one activation buffer per layer
        scratch.acts.last().unwrap()
    }

    /// True when `scratch` was allocated for this network's layer sizes
    /// (guards cached-scratch reuse across policies).
    pub fn scratch_fits(&self, scratch: &MlpScratch) -> bool {
        scratch.acts.len() == self.sizes.len()
            && scratch
                .acts
                .iter()
                .zip(self.sizes.iter())
                .all(|(a, &n)| a.len() == n)
    }

    /// Batched forward pass over `batch` samples stored row-major in
    /// `inputs` (`batch × input_dim`). Leaves all intermediate activations
    /// in `scratch` for a subsequent [`Mlp::backward_batch_accum`] and
    /// returns the flat `batch × output_dim` output rows (sample-major).
    ///
    /// Bit-compatibility: each sample is computed with the exact
    /// floating-point operation sequence of the scalar [`Mlp::forward`] —
    /// per output neuron, the accumulator starts at the bias and adds `w·x`
    /// products in ascending input order, with hidden activations getting a
    /// `tanh` afterwards (whose value does not depend on which lane or chunk
    /// it lands in) — so row `s` of the result is bit-identical to
    /// `forward(&inputs[s*d..(s+1)*d], ..)`.
    ///
    /// Internally the batch is processed *unit-major* (see
    /// [`MlpBatchScratch`]) in register blocks of [`LANES`] samples: per
    /// output neuron, `LANES` accumulators — one batch lane each — start at
    /// the bias and sweep the weight row once, `acc[s] += w[o][i] * x[i][s]`.
    /// Lanes are independent, so the compiler vectorizes across samples
    /// while each lane's addition order — bias first, then ascending `i` —
    /// is untouched. This is what makes the batched kernel faster than
    /// `batch` scalar calls: the scalar dot product is one latency-bound
    /// chain, the lane block is a throughput-bound SIMD sweep whose
    /// accumulators never leave the registers.
    ///
    /// # Panics
    /// Panics if `batch == 0` or `inputs.len() != batch * input_dim`.
    pub fn forward_batch<'s>(
        &self,
        inputs: &[f32],
        batch: usize,
        scratch: &'s mut MlpBatchScratch,
    ) -> &'s [f32] {
        assert!(batch > 0, "empty batch");
        assert_eq!(
            inputs.len(),
            batch * self.sizes[0],
            "batch input size mismatch"
        );
        scratch.ensure(&self.sizes, batch);
        let n_layers = self.sizes.len() - 1;
        // Transpose the sample-major inputs onto the unit-major batch axis.
        {
            let n0 = self.sizes[0];
            let a0 = &mut scratch.acts[0][..batch * n0];
            for (s, x) in inputs.chunks_exact(n0).enumerate() {
                for (i, v) in x.iter().enumerate() {
                    a0[i * batch + s] = *v;
                }
            }
        }
        for l in 0..n_layers {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let w = &self.params[self.w_off[l]..self.w_off[l] + n_out * n_in];
            let b = &self.params[self.b_off[l]..self.b_off[l] + n_out];
            let (lo, hi) = scratch.acts.split_at_mut(l + 1);
            let xs = &lo[l][..batch * n_in];
            let ys = &mut hi[0][..batch * n_out];
            for o in 0..n_out {
                let yo = &mut ys[o * batch..(o + 1) * batch];
                let bias = b[o];
                let row = &w[o * n_in..(o + 1) * n_in];
                // Register-blocked lanes: LANES accumulators start at b[o]
                // (exactly the scalar path's `acc = b[o]`), take their
                // `w·x` adds in ascending input order, and store once.
                let mut s = 0;
                while s + LANES <= batch {
                    let mut acc = [bias; LANES];
                    for (i, wi) in row.iter().enumerate() {
                        let x = &xs[i * batch + s..i * batch + s + LANES];
                        for (a, xv) in acc.iter_mut().zip(x.iter()) {
                            *a += wi * xv;
                        }
                    }
                    yo[s..s + LANES].copy_from_slice(&acc);
                    s += LANES;
                }
                // Ragged tail, one lane at a time with the same sequence.
                while s < batch {
                    let mut acc = bias;
                    for (i, wi) in row.iter().enumerate() {
                        acc += wi * xs[i * batch + s];
                    }
                    yo[s] = acc;
                    s += 1;
                }
            }
            // One fused tanh pass over the whole layer; the final layer
            // stays linear.
            if l + 1 < self.sizes.len() - 1 {
                tanh_in_place(ys);
            }
        }
        // Transpose the last layer back to the sample-major API layout.
        let n_out = self.output_dim();
        let ys = &scratch.acts[n_layers][..batch * n_out];
        let out = &mut scratch.out[..batch * n_out];
        for (s, row) in out.chunks_exact_mut(n_out).enumerate() {
            for (o, v) in row.iter_mut().enumerate() {
                *v = ys[o * batch + s];
            }
        }
        &scratch.out[..batch * n_out]
    }

    /// Transposes the sample-major `grad_out` rows into the unit-major
    /// top-layer delta buffer.
    fn seed_output_deltas(&self, grad_out: &[f32], batch: usize, scratch: &mut MlpBatchScratch) {
        let n_layers = self.sizes.len() - 1;
        let n_out = self.output_dim();
        let dl = &mut scratch.deltas[n_layers][..batch * n_out];
        for (s, row) in grad_out.chunks_exact(n_out).enumerate() {
            for (o, v) in row.iter().enumerate() {
                dl[o * batch + s] = *v;
            }
        }
    }

    /// If layer `l`'s output is a hidden activation, folds tanh' into its
    /// delta buffer (elementwise — each element's value is independent, so
    /// the traversal order is irrelevant to bit-exactness).
    fn fold_tanh_deltas(&self, l: usize, batch: usize, scratch: &mut MlpBatchScratch) {
        let n_layers = self.sizes.len() - 1;
        let n_out = self.sizes[l + 1];
        if l + 1 < n_layers {
            let act = &scratch.acts[l + 1][..batch * n_out];
            let delta = &mut scratch.deltas[l + 1][..batch * n_out];
            for (d, a) in delta.iter_mut().zip(act.iter()) {
                *d *= 1.0 - a * a;
            }
        }
    }

    /// Computes layer `l`'s input deltas from its output deltas (skipped
    /// for the input layer). Register-blocked lanes across the batch axis:
    /// each lane's accumulator starts at +0.0 and adds `d[o]·w[o][i]`
    /// contributions in ascending `o` order exactly like the scalar path.
    /// The scalar path's `d == 0.0` skip is dropped here: adding the
    /// resulting `±0.0` product is bit-identical, because an accumulator
    /// that starts at +0.0 can never become −0.0 under round-to-nearest
    /// (DESIGN.md §11), and it keeps the lanes branch-free.
    fn propagate_input_deltas(&self, l: usize, batch: usize, scratch: &mut MlpBatchScratch) {
        if l == 0 {
            return;
        }
        let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
        let w = &self.params[self.w_off[l]..self.w_off[l] + n_out * n_in];
        let (lo, hi) = scratch.deltas.split_at_mut(l + 1);
        let dxs = &mut lo[l][..batch * n_in];
        let d_ups = &hi[0][..batch * n_out];
        for i in 0..n_in {
            let dxi = &mut dxs[i * batch..(i + 1) * batch];
            let mut s = 0;
            while s + LANES <= batch {
                let mut acc = [0.0f32; LANES];
                for o in 0..n_out {
                    let wi = w[o * n_in + i];
                    let d = &d_ups[o * batch + s..o * batch + s + LANES];
                    for (a, dv) in acc.iter_mut().zip(d.iter()) {
                        *a += dv * wi;
                    }
                }
                dxi[s..s + LANES].copy_from_slice(&acc);
                s += LANES;
            }
            while s < batch {
                let mut acc = 0.0f32;
                for o in 0..n_out {
                    acc += d_ups[o * batch + s] * w[o * n_in + i];
                }
                dxi[s] = acc;
                s += 1;
            }
        }
    }

    /// Batched backward pass. `grad_out` holds `dLoss/dOutput` rows
    /// (`batch × output_dim`) for the batch whose forward pass most recently
    /// filled `scratch`; the whole batch's parameter gradients are
    /// *accumulated* into `grads` (same layout/length as `params`),
    /// iterating samples in ascending order. This is the backward half of
    /// each network pass of the PPO update (DESIGN.md §11).
    ///
    /// Bit-compatibility: per parameter, the additions land in sample order
    /// exactly as the scalar [`Mlp::backward`] loop over samples would
    /// produce them, including its zero-delta skip (parameters belong to
    /// exactly one layer, so the layer-major walk does not reorder any
    /// accumulator's sequence).
    ///
    /// # Panics
    /// Panics on any size mismatch.
    pub fn backward_batch_accum(
        &self,
        grad_out: &[f32],
        batch: usize,
        scratch: &mut MlpBatchScratch,
        grads: &mut [f32],
    ) {
        let n_layers = self.sizes.len() - 1;
        assert_eq!(
            grad_out.len(),
            batch * self.output_dim(),
            "grad dim mismatch"
        );
        assert_eq!(grads.len(), self.params.len(), "grads buffer mismatch");
        assert!(
            scratch.acts.len() == self.sizes.len() && scratch.batch >= batch,
            "scratch not filled by a matching forward_batch"
        );
        self.seed_output_deltas(grad_out, batch, scratch);
        for l in (0..n_layers).rev() {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            self.fold_tanh_deltas(l, batch, scratch);
            // Parameter grads, samples outermost so every parameter's
            // accumulator takes its additions in ascending sample order —
            // the serial reference chain. Keeping the sample loop outside
            // also keeps the reduction chains *short* (length `n_in` /
            // `n_out` per sample) and independent across `o`, which is what
            // lets the CPU overlap them; a per-parameter fold over the
            // whole batch axis would be one long latency-bound chain. The
            // layer's activations and deltas are staged back to
            // sample-major so the inner loop runs over contiguous rows.
            // Weights and biases are contiguous per layer, so one split
            // yields both mutable views.
            {
                transpose_to_rows(&scratch.acts[l], batch, n_in, &mut scratch.xt);
                transpose_to_rows(&scratch.deltas[l + 1], batch, n_out, &mut scratch.dt);
                let xt = &scratch.xt[..batch * n_in];
                let dt = &scratch.dt[..batch * n_out];
                let (gw, rest) = grads[self.w_off[l]..].split_at_mut(n_out * n_in);
                let gb = &mut rest[..n_out];
                for (x, d_row) in xt.chunks_exact(n_in).zip(dt.chunks_exact(n_out)) {
                    for (o, &d) in d_row.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        let row = &mut gw[o * n_in..(o + 1) * n_in];
                        for (g, xi) in row.iter_mut().zip(x.iter()) {
                            *g += d * xi;
                        }
                    }
                    for (g, d) in gb.iter_mut().zip(d_row.iter()) {
                        *g += d;
                    }
                }
            }
            self.propagate_input_deltas(l, batch, scratch);
        }
    }

    /// Backward pass. `grad_out` is `dLoss/dOutput` for the sample whose
    /// forward pass most recently filled `scratch`. Accumulates parameter
    /// gradients into `grads` (same layout/length as `params`).
    pub fn backward(&self, grad_out: &[f32], scratch: &mut MlpScratch, grads: &mut [f32]) {
        assert_eq!(grad_out.len(), self.output_dim(), "grad dim mismatch");
        assert_eq!(grads.len(), self.params.len(), "grads buffer mismatch");
        let n_layers = self.sizes.len() - 1;
        scratch.deltas[n_layers].copy_from_slice(grad_out);
        for l in (0..n_layers).rev() {
            let (n_in, n_out) = (self.sizes[l], self.sizes[l + 1]);
            let w = &self.params[self.w_off[l]..self.w_off[l] + n_out * n_in];
            // If this is a hidden layer output, fold tanh' into delta.
            if l + 1 < n_layers {
                let act = &scratch.acts[l + 1];
                let delta = &mut scratch.deltas[l + 1];
                for (d, a) in delta.iter_mut().zip(act.iter()) {
                    *d *= 1.0 - a * a;
                }
            }
            // Parameter grads.
            {
                let x = &scratch.acts[l];
                let delta = &scratch.deltas[l + 1];
                let gw = &mut grads[self.w_off[l]..self.w_off[l] + n_out * n_in];
                for o in 0..n_out {
                    let d = delta[o];
                    if d == 0.0 {
                        continue;
                    }
                    let row = &mut gw[o * n_in..(o + 1) * n_in];
                    for (g, xi) in row.iter_mut().zip(x.iter()) {
                        *g += d * xi;
                    }
                }
                let gb = &mut grads[self.b_off[l]..self.b_off[l] + n_out];
                for (g, d) in gb.iter_mut().zip(delta.iter()) {
                    *g += d;
                }
            }
            // Input grads for the next (lower) layer.
            if l > 0 {
                let (lo, hi) = scratch.deltas.split_at_mut(l + 1);
                let dx = &mut lo[l];
                let d_up = &hi[0];
                dx.iter_mut().for_each(|v| *v = 0.0);
                for o in 0..n_out {
                    let d = d_up[o];
                    if d == 0.0 {
                        continue;
                    }
                    let row = &w[o * n_in..(o + 1) * n_in];
                    for (g, wi) in dx.iter_mut().zip(row.iter()) {
                        *g += d * wi;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of the analytic gradient on a random net.
    #[test]
    fn backward_matches_finite_differences() {
        let mlp = Mlp::new(&[3, 5, 4, 2], 42);
        let input = [0.3f32, -0.7, 1.2];
        // Loss = sum of squared outputs / 2, so dL/dy = y.
        let loss = |net: &Mlp| {
            let mut s = net.scratch();
            let y = net.forward(&input, &mut s);
            y.iter().map(|v| 0.5 * v * v).sum::<f32>()
        };
        let mut scratch = mlp.scratch();
        let y: Vec<f32> = mlp.forward(&input, &mut scratch).to_vec();
        let mut grads = vec![0.0f32; mlp.param_count()];
        mlp.backward(&y, &mut scratch, &mut grads);

        let eps = 1e-3f32;
        let mut worst = 0.0f32;
        for i in (0..mlp.param_count()).step_by(7) {
            let mut plus = mlp.clone();
            plus.params_mut()[i] += eps;
            let mut minus = mlp.clone();
            minus.params_mut()[i] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let diff = (fd - grads[i]).abs();
            let denom = fd.abs().max(grads[i].abs()).max(1e-3);
            worst = worst.max(diff / denom);
        }
        assert!(worst < 0.02, "worst relative gradient error {worst}");
    }

    #[test]
    fn forward_is_deterministic() {
        let mlp = Mlp::new(&[2, 8, 3], 7);
        let mut s1 = mlp.scratch();
        let mut s2 = mlp.scratch();
        let a = mlp.forward(&[0.1, 0.2], &mut s1).to_vec();
        let b = mlp.forward(&[0.1, 0.2], &mut s2).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn same_seed_same_init() {
        let a = Mlp::new(&[4, 16, 2], 99);
        let b = Mlp::new(&[4, 16, 2], 99);
        assert_eq!(a.params(), b.params());
        let c = Mlp::new(&[4, 16, 2], 100);
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn param_count_formula() {
        let mlp = Mlp::new(&[3, 5, 2], 0);
        assert_eq!(mlp.param_count(), 3 * 5 + 5 + 5 * 2 + 2);
    }

    #[test]
    fn output_depends_on_input() {
        let mlp = Mlp::new(&[2, 8, 1], 1);
        let mut s = mlp.scratch();
        let a = mlp.forward(&[0.0, 0.0], &mut s).to_vec();
        let b = mlp.forward(&[1.0, -1.0], &mut s).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn hidden_activations_bounded_by_tanh() {
        let mlp = Mlp::new(&[2, 6, 6, 1], 5);
        let mut s = mlp.scratch();
        let _ = mlp.forward(&[100.0, -100.0], &mut s);
        for layer in 1..3 {
            assert!(s.acts[layer].iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn wrong_input_dim_panics() {
        let mlp = Mlp::new(&[3, 2], 0);
        let mut s = mlp.scratch();
        let _ = mlp.forward(&[1.0], &mut s);
    }

    /// A pseudo-random but deterministic batch of inputs.
    fn test_batch(dim: usize, batch: usize) -> Vec<f32> {
        (0..batch * dim)
            .map(|i| ((i * 37 + 11) % 200) as f32 * 0.01 - 1.0)
            .collect()
    }

    /// [`test_batch`] with every third row zeroed (its first-layer
    /// pre-activations are the zero biases) and every third row scaled by 80
    /// (pre-activations past tanh's saturation at |x| ≥ 22).
    fn mixed_batch(dim: usize, batch: usize) -> Vec<f32> {
        let mut xs = test_batch(dim, batch);
        for (s, row) in xs.chunks_exact_mut(dim).enumerate() {
            match s % 3 {
                0 => row.fill(0.0),
                1 => row.iter_mut().for_each(|v| *v *= 80.0),
                _ => {}
            }
        }
        xs
    }

    /// The forward pass written out with `f32::tanh`, plus the number of
    /// hidden pre-activations that were exactly zero and that saturated.
    fn libm_forward(mlp: &Mlp, input: &[f32]) -> (Vec<f32>, usize, usize) {
        let (mut x, mut zeros, mut saturated) = (input.to_vec(), 0, 0);
        let n_layers = mlp.sizes.len() - 1;
        for l in 0..n_layers {
            let (n_in, n_out) = (mlp.sizes[l], mlp.sizes[l + 1]);
            let w = &mlp.params[mlp.w_off[l]..];
            let mut y: Vec<f32> = (0..n_out)
                .map(|o| {
                    let row = &w[o * n_in..(o + 1) * n_in];
                    row.iter()
                        .zip(&x)
                        .fold(mlp.params[mlp.b_off[l] + o], |acc, (wi, xi)| acc + wi * xi)
                })
                .collect();
            if l + 1 < n_layers {
                zeros += y.iter().filter(|v| **v == 0.0).count();
                saturated += y.iter().filter(|v| v.abs() >= 22.0).count();
                y.iter_mut().for_each(|v| *v = v.tanh());
            }
            x = y;
        }
        (x, zeros, saturated)
    }

    #[test]
    fn forward_batch_rows_bit_equal_scalar_forward() {
        // The second net's hidden widths are not multiples of the tanh
        // kernel's 8 lanes, and its inputs make some pre-activations exactly
        // zero and some saturate, so both forward paths run the kernel's
        // lanes, its scalar fallback and its remainder. Both paths must also
        // match the forward pass written with the host libm's `tanhf`.
        let cases = [
            (Mlp::new(&[4, 32, 16, 3], 21), test_batch(4, 13), false),
            (Mlp::new(&[4, 13, 5, 3], 25), mixed_batch(4, 13), true),
        ];
        for (mlp, inputs, hits_fallback) in &cases {
            let batch = inputs.len() / 4;
            let mut bs = MlpBatchScratch::default();
            let ys = mlp.forward_batch(inputs, batch, &mut bs).to_vec();
            let mut s = mlp.scratch();
            let (mut zeros, mut saturated) = (0, 0);
            for b in 0..batch {
                let x = &inputs[b * 4..(b + 1) * 4];
                let (reference, z, sat) = libm_forward(mlp, x);
                (zeros, saturated) = (zeros + z, saturated + sat);
                let y = mlp.forward(x, &mut s);
                for (o, ((scalar, batched), libm)) in y
                    .iter()
                    .zip(&ys[b * 3..(b + 1) * 3])
                    .zip(&reference)
                    .enumerate()
                {
                    assert_eq!(
                        scalar.to_bits(),
                        batched.to_bits(),
                        "{:?} sample {b} output {o}: scalar {scalar} vs batched {batched}",
                        mlp.sizes
                    );
                    assert_eq!(
                        scalar.to_bits(),
                        libm.to_bits(),
                        "{:?} sample {b} output {o}: scalar {scalar} vs libm {libm}",
                        mlp.sizes
                    );
                }
            }
            if *hits_fallback {
                assert!(
                    zeros > 0 && saturated > 0,
                    "{zeros} zero, {saturated} saturated"
                );
            }
        }
    }

    #[test]
    fn backward_batch_accum_bit_equal_scalar() {
        let mlp = Mlp::new(&[4, 32, 16, 3], 23);
        let batch = 11;
        let inputs = test_batch(4, batch);
        let gouts: Vec<f32> = (0..batch * 3)
            .map(|i| {
                if i % 4 == 0 {
                    0.0
                } else {
                    (i % 9) as f32 * 0.07 - 0.2
                }
            })
            .collect();
        let p = mlp.param_count();

        // Reference: scalar per-sample accumulation (the serial loop).
        let mut s = mlp.scratch();
        let mut scalar = vec![0.0f32; p];
        for b in 0..batch {
            let _ = mlp.forward(&inputs[b * 4..(b + 1) * 4], &mut s);
            mlp.backward(&gouts[b * 3..(b + 1) * 3], &mut s, &mut scalar);
        }

        // Under test: batched accumulation.
        let mut bs = MlpBatchScratch::default();
        let _ = mlp.forward_batch(&inputs, batch, &mut bs);
        let mut accum = vec![0.0f32; p];
        mlp.backward_batch_accum(&gouts, batch, &mut bs, &mut accum);

        for i in 0..p {
            assert_eq!(
                scalar[i].to_bits(),
                accum[i].to_bits(),
                "param {i}: scalar {} vs accum {}",
                scalar[i],
                accum[i]
            );
        }
    }

    #[test]
    fn batch_scratch_grows_and_is_reusable() {
        let mlp = Mlp::new(&[2, 8, 2], 3);
        let mut bs = MlpBatchScratch::default();
        let small = test_batch(2, 3);
        let first = mlp.forward_batch(&small, 3, &mut bs).to_vec();
        // Larger batch forces a regrow; smaller batch after that reuses.
        let big = test_batch(2, 17);
        let _ = mlp.forward_batch(&big, 17, &mut bs);
        let again = mlp.forward_batch(&small, 3, &mut bs).to_vec();
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            again.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scratch_fits_detects_shape_mismatch() {
        let a = Mlp::new(&[3, 5, 2], 0);
        let b = Mlp::new(&[3, 6, 2], 0);
        let s = a.scratch();
        assert!(a.scratch_fits(&s));
        assert!(!b.scratch_fits(&s));
    }
}
