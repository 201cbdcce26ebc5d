//! Order statistics over repeated samples.

/// Median, quartiles and tail of one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The highest of p99/p95/p90/p75/p50 with at least ten samples
    /// above it, as `(percentile, value)`.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = [99u32, 95, 90, 75, 50]
            .into_iter()
            .find(|&p| n * (100 - p as usize) >= 1000)
            .map(|p| (p, quantile(&sorted, f64::from(p) / 100.0)));
        Some(Summary {
            n,
            median: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            tail,
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Linear-interpolation quantile of sorted data (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).unwrap().tail.map(|t| t.0), Some(90));
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).unwrap().tail.map(|t| t.0), Some(50));
    }
}
