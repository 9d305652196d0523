//! Non-Bayesian search comparators for Figure 20.
//!
//! The paper compares BO against (a) uniformly random exploration of the
//! configuration space and (b) a grid search that "starts with all
//! configurations initialized to their respective midpoints and then
//! searches and updates the best value for each configuration one by one" —
//! i.e. coordinate descent over a per-dimension grid.

use crate::Proposer;
use genet_env::{EnvConfig, ParamSpace};
use rand::rngs::StdRng;

/// Uniform random search.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    space: ParamSpace,
    obs: Vec<(EnvConfig, f64)>,
}

impl RandomSearch {
    /// Creates a random search over `space`.
    pub fn new(space: ParamSpace) -> Self {
        Self {
            space,
            obs: Vec::new(),
        }
    }
}

impl Proposer for RandomSearch {
    fn propose(&mut self, rng: &mut StdRng) -> EnvConfig {
        self.space.sample(rng)
    }

    fn observe(&mut self, cfg: EnvConfig, value: f64) {
        if value.is_finite() {
            self.obs.push((cfg, value));
        }
    }

    fn best(&self) -> Option<(&EnvConfig, f64)> {
        self.obs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(c, v)| (c, *v))
    }
}

/// Coordinate-wise grid search starting at the space midpoint.
#[derive(Debug, Clone)]
pub struct GridSearch {
    space: ParamSpace,
    /// Grid points per dimension.
    points_per_dim: usize,
    /// The best configuration found so far (the coordinate-descent anchor).
    current: EnvConfig,
    current_value: f64,
    /// Which dimension and grid index the next proposal explores.
    dim: usize,
    idx: usize,
    obs: Vec<(EnvConfig, f64)>,
}

impl GridSearch {
    /// Creates a grid search with `points_per_dim` values per dimension.
    ///
    /// # Panics
    /// Panics if `points_per_dim < 2` or the space is empty.
    pub fn new(space: ParamSpace, points_per_dim: usize) -> Self {
        assert!(points_per_dim >= 2, "need at least 2 grid points per dim");
        assert!(
            !space.is_empty(),
            "grid search needs at least one dimension"
        );
        let current = space.midpoint();
        Self {
            space,
            points_per_dim,
            current,
            current_value: f64::NEG_INFINITY,
            dim: 0,
            idx: 0,
            obs: Vec::new(),
        }
    }

    fn grid_value(&self, dim: usize, idx: usize) -> f64 {
        let d = &self.space.dims()[dim];
        d.lerp(idx as f64 / (self.points_per_dim - 1) as f64)
    }
}

impl Proposer for GridSearch {
    fn propose(&mut self, _rng: &mut StdRng) -> EnvConfig {
        let raw = self
            .current
            .with_value(self.dim, self.grid_value(self.dim, self.idx));
        self.space.clamp(raw.values())
    }

    fn observe(&mut self, cfg: EnvConfig, value: f64) {
        if value.is_finite() {
            if value > self.current_value {
                self.current_value = value;
                self.current = cfg.clone();
            }
            self.obs.push((cfg, value));
        }
        // Advance the scan: next grid point, wrapping to the next dimension
        // (and cycling over dimensions indefinitely, refining around the
        // incumbent).
        self.idx += 1;
        if self.idx >= self.points_per_dim {
            self.idx = 0;
            self.dim = (self.dim + 1) % self.space.len();
        }
    }

    fn best(&self) -> Option<(&EnvConfig, f64)> {
        if self.obs.is_empty() {
            None
        } else {
            Some((&self.current, self.current_value))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genet_env::ParamDim;
    use rand::SeedableRng;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            ParamDim::new("a", 0.0, 10.0),
            ParamDim::new("b", 0.0, 10.0),
        ])
    }

    fn objective(cfg: &EnvConfig) -> f64 {
        -(cfg.get(0) - 8.0).abs() - (cfg.get(1) - 3.0).abs()
    }

    #[test]
    fn random_search_best_is_max_observed() {
        let mut rs = RandomSearch::new(space());
        let mut rng = StdRng::seed_from_u64(0);
        let mut max_seen = f64::NEG_INFINITY;
        for _ in 0..50 {
            let cfg = rs.propose(&mut rng);
            let v = objective(&cfg);
            max_seen = max_seen.max(v);
            rs.observe(cfg, v);
        }
        assert_eq!(rs.best().unwrap().1, max_seen);
    }

    #[test]
    fn grid_search_scans_each_dimension() {
        let mut gs = GridSearch::new(space(), 5);
        let mut rng = StdRng::seed_from_u64(0);
        // First 5 proposals vary dim 0 while dim 1 stays at midpoint.
        for i in 0..5 {
            let cfg = gs.propose(&mut rng);
            assert_eq!(cfg.get(1), 5.0, "proposal {i} should pin dim 1 at midpoint");
            gs.observe(cfg, 0.0);
        }
        // Next proposals vary dim 1.
        let cfg = gs.propose(&mut rng);
        assert_eq!(cfg.get(1), 0.0, "dim 1 scan should start at min");
    }

    #[test]
    fn grid_search_converges_coordinatewise() {
        let mut gs = GridSearch::new(space(), 11);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..22 {
            let cfg = gs.propose(&mut rng);
            let v = objective(&cfg);
            gs.observe(cfg, v);
        }
        let (best, v) = gs.best().unwrap();
        assert!((best.get(0) - 8.0).abs() < 1e-9, "{best}");
        assert!((best.get(1) - 3.0).abs() < 1e-9, "{best}");
        assert!((v - 0.0).abs() < 1e-9);
    }

    #[test]
    fn random_search_ignores_non_finite_observation() {
        let mut rs = RandomSearch::new(space());
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = rs.propose(&mut rng);
        rs.observe(cfg, f64::NAN);
        assert!(rs.best().is_none());
        let cfg = rs.propose(&mut rng);
        rs.observe(cfg.clone(), -2.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let other = rs.propose(&mut rng);
            rs.observe(other, bad);
        }
        assert_eq!(rs.best(), Some((&cfg, -2.0)));
    }

    #[test]
    fn grid_search_ignores_non_finite_observation_but_advances() {
        // A non-finite value never becomes the anchor or best, but the
        // scan still moves on to the next grid point.
        let mut gs = GridSearch::new(space(), 3);
        let mut rng = StdRng::seed_from_u64(0);
        let first = gs.propose(&mut rng);
        gs.observe(first.clone(), f64::INFINITY);
        assert!(gs.best().is_none());
        let second = gs.propose(&mut rng);
        assert_ne!(first, second, "the scan did not advance");
        gs.observe(second.clone(), -1.0);
        let third = gs.propose(&mut rng);
        gs.observe(third, f64::NAN);
        assert_eq!(gs.best(), Some((&second, -1.0)));
        // The anchor moved to `second`: the dim-1 scan keeps its dim 0.
        let next = gs.propose(&mut rng);
        assert_eq!(next.get(0).to_bits(), second.get(0).to_bits());
    }

    #[test]
    fn grid_search_empty_best_is_none() {
        let gs = GridSearch::new(space(), 3);
        assert!(gs.best().is_none());
    }
}
