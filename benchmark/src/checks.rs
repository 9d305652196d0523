//! Output checks and failed-operation counts. Each is a pure function of
//! values the program returned, so the tests below can show it rejecting a
//! corrupted value.

use genet::env::{EnvConfig, ParamSpace};
use genet::serve::ServeStats;

pub type Check = Result<(), String>;

/// The training log holds one finite reward per iteration.
pub fn train_log(label: &str, iter_rewards: &[f64], expected_iters: usize) -> Check {
    if iter_rewards.len() != expected_iters {
        return Err(format!(
            "{label}: {} logged iterations, expected {expected_iters}",
            iter_rewards.len()
        ));
    }
    match iter_rewards.iter().position(|r| !r.is_finite()) {
        Some(i) => Err(format!("{label}: iteration {i} reward {}", iter_rewards[i])),
        None => Ok(()),
    }
}

/// PPO iterations that failed: those logged with a non-finite reward, plus
/// any of the `expected` the log is missing.
pub fn failed_iterations(iter_rewards: &[f64], expected: usize) -> u64 {
    let missing = expected.saturating_sub(iter_rewards.len());
    (missing + iter_rewards.iter().filter(|r| !r.is_finite()).count()) as u64
}

/// Values that are not finite: failed episodes of an evaluation, or failed
/// gap estimates of a search.
pub fn non_finite(values: &[f64]) -> u64 {
    values.iter().filter(|v| !v.is_finite()).count() as u64
}

/// Decisions a tick failed to make: sessions live before it that it did
/// not serve.
pub fn missing_decisions(live_before: u64, decided: u64) -> u64 {
    live_before.saturating_sub(decided)
}

/// Exactly `rounds` configurations were promoted, each inside `space` with
/// a finite criterion value.
pub fn promoted(
    label: &str,
    promoted: &[(EnvConfig, f64)],
    rounds: usize,
    space: &ParamSpace,
) -> Check {
    if promoted.len() != rounds {
        return Err(format!(
            "{label}: {} promoted configurations, expected {rounds}",
            promoted.len()
        ));
    }
    for (i, (cfg, value)) in promoted.iter().enumerate() {
        if !space.contains(cfg) {
            return Err(format!("{label}: promotion {i} lies outside the space"));
        }
        if !value.is_finite() {
            return Err(format!("{label}: promotion {i} criterion value {value}"));
        }
    }
    Ok(())
}

/// The trained policy's mean held-out reward beats the untrained agent's.
pub fn improves(label: &str, trained: f64, untrained: f64) -> Check {
    if trained > untrained {
        Ok(())
    } else {
        Err(format!(
            "{label}: trained mean reward {trained} does not beat untrained {untrained}"
        ))
    }
}

/// Batched values equal the serial reference, bit for bit.
pub fn same_values(label: &str, batched: f64, serial: f64) -> Check {
    if batched.to_bits() == serial.to_bits() {
        Ok(())
    } else {
        Err(format!("{label}: batched {batched} != serial {serial}"))
    }
}

/// A search trial's gap equals mean(baseline − policy) over its `k`
/// environments, within 1e-9 relative.
pub fn gap(label: &str, gap: f64, baseline: &[f64], policy: &[f64]) -> Check {
    if baseline.len() != policy.len() || baseline.is_empty() {
        return Err(format!("{label}: mismatched recomputation inputs"));
    }
    let want = baseline.iter().zip(policy).map(|(b, p)| b - p).sum::<f64>() / baseline.len() as f64;
    let tol = 1e-9 * want.abs().max(1e-12);
    if (gap - want).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{label}: gap {gap} != recomputed {want}"))
    }
}

/// The oracle's mean reward is at least every other contender's.
pub fn oracle_dominates(label: &str, oracle: f64, others: &[(String, f64)]) -> Check {
    match others.iter().find(|(_, v)| *v > oracle) {
        Some((name, v)) => Err(format!(
            "{label}: {name} mean {v} beats the oracle {oracle}"
        )),
        None => Ok(()),
    }
}

/// Serving bookkeeping: decisions equal the live sessions counted before
/// each tick, arrivals minus departures equal the live set, and both the
/// action histogram and the per-session step counts sum to the decisions.
pub fn serve_counts(
    label: &str,
    stats: &ServeStats,
    counted_decisions: u64,
    digests: &[(u64, u64, u64)],
) -> Check {
    if stats.decisions != counted_decisions {
        return Err(format!(
            "{label}: {} decisions, {counted_decisions} live sessions counted",
            stats.decisions
        ));
    }
    if stats.arrivals - stats.departures != stats.live_sessions {
        return Err(format!(
            "{label}: arrivals {} - departures {} != live {}",
            stats.arrivals, stats.departures, stats.live_sessions
        ));
    }
    let hist: u64 = stats.action_hist.iter().sum();
    if hist != stats.decisions {
        return Err(format!(
            "{label}: action histogram sums to {hist}, not {}",
            stats.decisions
        ));
    }
    let steps: u64 = digests.iter().map(|d| d.1).sum();
    if steps != stats.decisions {
        return Err(format!(
            "{label}: session steps sum to {steps}, not {}",
            stats.decisions
        ));
    }
    Ok(())
}

/// The scalar-path replay made the same decisions as the batched engine.
pub fn replay(
    label: &str,
    batched: (&ServeStats, &[(u64, u64, u64)]),
    scalar: (&ServeStats, &[(u64, u64, u64)]),
) -> Check {
    if batched.0.checksum != scalar.0.checksum {
        return Err(format!(
            "{label}: checksum {:#x} != scalar replay {:#x}",
            batched.0.checksum, scalar.0.checksum
        ));
    }
    if batched.1 != scalar.1 {
        return Err(format!(
            "{label}: session digests differ from the scalar replay"
        ));
    }
    Ok(())
}

/// Every round after the first reproduces the first round's fingerprint.
pub fn repeats(label: &str, first: u64, later: u64) -> Check {
    if first == later {
        Ok(())
    } else {
        Err(format!(
            "{label}: round fingerprint {later:#x} != first round {first:#x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet::env::Scenario;
    use genet::lb::LbScenario;

    #[test]
    fn train_log_rejects_short_and_non_finite() {
        assert!(train_log("t", &[1.0, 2.0], 2).is_ok());
        assert!(train_log("t", &[1.0], 2).is_err());
        assert!(train_log("t", &[1.0, f64::NAN], 2).is_err());
    }

    #[test]
    fn corrupted_outputs_count_as_failed() {
        assert_eq!(failed_iterations(&[1.0, 2.0], 2), 0);
        assert_eq!(failed_iterations(&[1.0, f64::NAN], 2), 1);
        assert_eq!(failed_iterations(&[f64::INFINITY], 3), 3);
        assert_eq!(non_finite(&[0.5, -2.0]), 0);
        assert_eq!(non_finite(&[0.5, f64::NAN, f64::NEG_INFINITY]), 2);
        assert_eq!(missing_decisions(512, 512), 0);
        assert_eq!(missing_decisions(512, 500), 12);
    }

    #[test]
    fn promoted_rejects_count_outside_and_non_finite() {
        let space = LbScenario.full_space();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let cfg = space.sample(&mut rng);
        let good = vec![(cfg.clone(), 0.5), (cfg.clone(), 1.0)];
        assert!(promoted("p", &good, 2, &space).is_ok());
        assert!(promoted("p", &good, 3, &space).is_err());
        let mut bad_value = good.clone();
        bad_value[1].1 = f64::INFINITY;
        assert!(promoted("p", &bad_value, 2, &space).is_err());
        let beyond = cfg.with_value(0, space.dims()[0].max + 1.0);
        let outside = vec![(cfg.clone(), 0.5), (beyond, 1.0)];
        assert!(promoted("p", &outside, 2, &space).is_err());
    }

    #[test]
    fn improves_rejects_no_gain() {
        assert!(improves("i", 2.87, -1.57).is_ok());
        assert!(improves("i", -1.57, -1.57).is_err());
    }

    #[test]
    fn same_values_is_bitwise() {
        assert!(same_values("s", 0.1 + 0.2, 0.1 + 0.2).is_ok());
        assert!(same_values("s", 0.3, 0.1 + 0.2).is_err());
    }

    #[test]
    fn gap_rejects_a_perturbed_value() {
        let b = [3.0, 5.0];
        let p = [1.0, 2.0];
        assert!(gap("g", 2.5, &b, &p).is_ok());
        assert!(gap("g", 2.5 * (1.0 + 1e-7), &b, &p).is_err());
        assert!(gap("g", 2.5, &b, &p[..1]).is_err());
    }

    #[test]
    fn oracle_dominates_rejects_a_better_contender() {
        let others = vec![("mpc".to_string(), 1.0), ("policy".to_string(), 1.5)];
        assert!(oracle_dominates("o", 2.0, &others).is_ok());
        assert!(oracle_dominates("o", 1.2, &others).is_err());
    }

    fn stats() -> (ServeStats, Vec<(u64, u64, u64)>) {
        let stats = ServeStats {
            live_sessions: 1,
            arrivals: 3,
            departures: 2,
            decisions: 6,
            action_hist: vec![4, 2],
            checksum: 77,
            ..ServeStats::default()
        };
        (stats, vec![(0, 1, 9), (1, 2, 8), (2, 3, 7)])
    }

    #[test]
    fn serve_counts_rejects_each_corruption() {
        let (s, d) = stats();
        assert!(serve_counts("c", &s, 6, &d).is_ok());
        assert!(serve_counts("c", &s, 7, &d).is_err());
        let mut live = s.clone();
        live.live_sessions = 2;
        assert!(serve_counts("c", &live, 6, &d).is_err());
        let mut hist = s.clone();
        hist.action_hist[0] = 5;
        assert!(serve_counts("c", &hist, 6, &d).is_err());
        let mut steps = d.clone();
        steps[2].1 = 4;
        assert!(serve_counts("c", &s, 6, &steps).is_err());
    }

    #[test]
    fn replay_rejects_checksum_and_digest_drift() {
        let (s, d) = stats();
        assert!(replay("r", (&s, &d), (&s, &d)).is_ok());
        let mut sum = s.clone();
        sum.checksum += 1;
        assert!(replay("r", (&s, &d), (&sum, &d)).is_err());
        let mut dig = d.clone();
        dig[1].2 ^= 1;
        assert!(replay("r", (&s, &d), (&s, &dig)).is_err());
    }

    #[test]
    fn repeats_rejects_a_different_round() {
        assert!(repeats("f", 5, 5).is_ok());
        assert!(repeats("f", 5, 6).is_err());
    }
}
