//! Order statistics for the reported timings.

/// Samples that must lie strictly beyond a tail percentile's rank for
/// the percentile to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`) of `xs`, reported only
/// when at least [`MIN_BEYOND`] samples lie beyond its rank: p99 needs
/// 1000 samples, p50 needs 20.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Host times of one timed iteration. Every iteration repeats the same
/// deterministic work, so each vector has the same length and order in
/// every iteration.
#[derive(Clone, Debug, Default)]
pub struct Iteration {
    /// The timed body, split into units (phases or scenario runs).
    pub units_s: Vec<f64>,
    /// One host time per decision: a control tick or a served request.
    pub decisions_us: Vec<f64>,
    /// Host time the serving layer was busy, per unit.
    pub serve_s: Vec<f64>,
    /// Predictions answered.
    pub preds: u64,
}

/// Position-wise best (minimum) host times across iterations.
///
/// The host's speed swings by up to 2x over episodes of seconds to
/// minutes, while each position repeats identical work; a position's
/// fastest time is its cost with the least interference. The body's
/// wall time is the sum of its units' best times, and the decision
/// percentiles range over the decisions' best times.
#[derive(Clone, Debug, Default)]
pub struct BestOf {
    units_s: Vec<f64>,
    decisions_us: Vec<f64>,
    serve_s: Vec<f64>,
    preds: u64,
    /// Raw iteration walls (sum of units), in order.
    pub walls: Vec<f64>,
    /// Set when an iteration's shape differed from the first one's.
    pub mismatched: bool,
}

fn min_into(best: &mut Vec<f64>, xs: &[f64], first: bool) -> bool {
    if first {
        best.extend_from_slice(xs);
        return true;
    }
    if best.len() != xs.len() {
        return false;
    }
    for (b, &x) in best.iter_mut().zip(xs) {
        *b = b.min(x);
    }
    true
}

impl BestOf {
    /// Fold one iteration in; returns its raw wall time.
    pub fn add(&mut self, it: &Iteration) -> f64 {
        let first = self.walls.is_empty();
        let ok = min_into(&mut self.units_s, &it.units_s, first)
            & min_into(&mut self.decisions_us, &it.decisions_us, first)
            & min_into(&mut self.serve_s, &it.serve_s, first);
        if first {
            self.preds = it.preds;
        }
        self.mismatched |= !ok || it.preds != self.preds;
        let wall = it.units_s.iter().sum();
        self.walls.push(wall);
        wall
    }

    /// Iterations folded in.
    pub fn iterations(&self) -> usize {
        self.walls.len()
    }

    /// Sum of the units' best times.
    pub fn wall_s(&self) -> f64 {
        self.units_s.iter().sum()
    }

    /// The decisions' best times.
    pub fn decisions_us(&self) -> &[f64] {
        &self.decisions_us
    }

    /// Predictions per second of the serving layer's best busy time.
    pub fn preds_per_s(&self) -> f64 {
        let busy: f64 = self.serve_s.iter().sum();
        if busy > 0.0 {
            self.preds as f64 / busy
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_its_rank() {
        // 1000 samples: rank 990, ten beyond.
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        // 999 samples: rank 990, nine beyond.
        assert_eq!(tail_percentile(&ramp(999), 99.0), None);
        assert_eq!(tail_percentile(&ramp(10), 99.0), None);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn best_of_takes_position_wise_minima() {
        let mut b = BestOf::default();
        let it = |u: [f64; 2], d: [f64; 3]| Iteration {
            units_s: u.to_vec(),
            decisions_us: d.to_vec(),
            serve_s: vec![u[1]],
            preds: 4,
        };
        assert_eq!(b.add(&it([1.0, 3.0], [5.0, 1.0, 9.0])), 4.0);
        assert_eq!(b.add(&it([2.0, 2.0], [4.0, 2.0, 9.5])), 4.0);
        assert_eq!(b.iterations(), 2);
        assert_eq!(b.wall_s(), 3.0);
        assert_eq!(b.decisions_us(), &[4.0, 1.0, 9.0]);
        assert_eq!(b.preds_per_s(), 2.0);
        assert!(!b.mismatched);
        b.add(&Iteration {
            units_s: vec![1.0],
            ..Iteration::default()
        });
        assert!(b.mismatched);
    }

    #[test]
    fn p50_rule_applies_too() {
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
    }
}
