//! Categorical policy head: numerically stable softmax, sampling, log-prob,
//! entropy, and the gradient identities PPO needs.

use rand::rngs::StdRng;
use rand::Rng;

/// In-place numerically stable softmax: `logits` becomes a probability
/// vector.
pub fn softmax_inplace(logits: &mut [f32]) {
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// Softmax of `logits` into the caller's reusable `probs` buffer, which is
/// resized to fit (a warm buffer allocates nothing); returns the
/// probabilities.
pub(crate) fn softmax_into<'a>(logits: &[f32], probs: &'a mut Vec<f32>) -> &'a [f32] {
    probs.clear();
    probs.extend_from_slice(logits);
    softmax_inplace(probs);
    probs
}

/// Samples an index from a probability vector.
pub fn sample_categorical(probs: &[f32], rng: &mut StdRng) -> usize {
    debug_assert!(!probs.is_empty());
    let u: f32 = rng.random();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// Index of the largest probability (greedy action).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// `log probs[a]` with a floor to avoid `-inf`.
pub fn log_prob(probs: &[f32], action: usize) -> f32 {
    probs[action].max(1e-12).ln()
}

/// Shannon entropy `−Σ p log p` of a probability vector (nats).
pub fn entropy(probs: &[f32]) -> f32 {
    -probs
        .iter()
        .map(|&p| if p > 1e-12 { p * p.ln() } else { 0.0 })
        .sum::<f32>()
}

/// Gradient of `log π(action)` with respect to the logits:
/// `δ_aj − π_j`, written into `out`.
pub fn grad_log_prob(probs: &[f32], action: usize, out: &mut [f32]) {
    for (j, (g, &p)) in out.iter_mut().zip(probs.iter()).enumerate() {
        *g = if j == action { 1.0 - p } else { -p };
    }
}

/// The entropy `H` of a probability vector, returned, and its gradient with
/// respect to the logits, `dH/dz_j = −π_j (log π_j + H)`, written into
/// `out`. Each `log π_j` is taken once, into the caller's `log_probs`
/// buffer; `H` is bit-identical to [`entropy`].
pub fn entropy_and_grad(probs: &[f32], log_probs: &mut [f32], out: &mut [f32]) -> f32 {
    for (l, &p) in log_probs.iter_mut().zip(probs) {
        *l = if p > 1e-12 { p.ln() } else { 0.0 };
    }
    let h = -probs
        .iter()
        .zip(log_probs.iter())
        .map(|(&p, &l)| if p > 1e-12 { p * l } else { 0.0 })
        .sum::<f32>();
    for ((g, &p), &l) in out.iter_mut().zip(probs).zip(log_probs.iter()) {
        *g = if p > 1e-12 { -p * (l + h) } else { 0.0 };
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn softmax(logits: &[f32]) -> Vec<f32> {
        let mut probs = Vec::new();
        softmax_into(logits, &mut probs);
        probs
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
            assert!(y.is_finite());
        }
    }

    #[test]
    fn sampling_matches_distribution() {
        let probs = softmax(&[0.0, 1.0, -1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_categorical(&probs, &mut rng)] += 1;
        }
        for i in 0..3 {
            let f = counts[i] as f32 / n as f32;
            assert!(
                (f - probs[i]).abs() < 0.01,
                "action {i}: {f} vs {}",
                probs[i]
            );
        }
    }

    #[test]
    fn entropy_extremes() {
        // Uniform over 4 → ln 4; deterministic → 0.
        let h_uni = entropy(&[0.25; 4]);
        assert!((h_uni - (4.0f32).ln()).abs() < 1e-6);
        let h_det = entropy(&[1.0, 0.0, 0.0, 0.0]);
        assert!(h_det.abs() < 1e-6);
    }

    #[test]
    fn grad_log_prob_finite_difference() {
        let logits = [0.3f32, -0.5, 1.1];
        let action = 1;
        let probs = softmax(&logits);
        let mut analytic = vec![0.0f32; 3];
        grad_log_prob(&probs, action, &mut analytic);
        let eps = 1e-3;
        for j in 0..3 {
            let mut lp = logits;
            lp[j] += eps;
            let mut lm = logits;
            lm[j] -= eps;
            let fd =
                (log_prob(&softmax(&lp), action) - log_prob(&softmax(&lm), action)) / (2.0 * eps);
            assert!(
                (fd - analytic[j]).abs() < 1e-3,
                "dim {j}: {fd} vs {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn grad_entropy_finite_difference() {
        let logits = [0.2f32, 0.9, -0.4];
        let probs = softmax(&logits);
        let mut analytic = vec![0.0f32; 3];
        let h = entropy_and_grad(&probs, &mut [0.0; 3], &mut analytic);
        assert_eq!(h.to_bits(), entropy(&probs).to_bits());
        let eps = 1e-3;
        for j in 0..3 {
            let mut lp = logits;
            lp[j] += eps;
            let mut lm = logits;
            lm[j] -= eps;
            let fd = (entropy(&softmax(&lp)) - entropy(&softmax(&lm))) / (2.0 * eps);
            assert!(
                (fd - analytic[j]).abs() < 1e-3,
                "dim {j}: {fd} vs {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.7, 0.2]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }
}
