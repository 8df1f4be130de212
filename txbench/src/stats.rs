//! Exact statistics over the benchmark's own per-operation samples.
//!
//! The engine's histograms report log2 bucket bounds, so a p50 read from
//! them is 63, 127 or 255 µs; every percentile printed by the benchmark is
//! taken here from the raw samples instead.

/// Exact percentiles of one operation class.
#[derive(Clone, Debug)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Latencies {
        samples.sort_by(f64::total_cmp);
        Latencies { sorted: samples }
    }

    /// Nearest-rank percentile: the smallest sample with at least `q` of
    /// all samples at or below it. `None` when there are no samples.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        Some(self.sorted[rank(n, q) - 1])
    }

    /// The percentile, but only where at least ten samples lie beyond it;
    /// with fewer, the value would be one of the last few samples and
    /// would say nothing about the tail.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 || n - rank(n, q) < 10 {
            return None;
        }
        self.percentile(q)
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Running mean of call times, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mean {
    pub sum: f64,
    pub n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Mean) {
        self.sum += other.sum;
        self.n += other.n;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Median of a few set-up times.
pub fn median(values: &[f64]) -> f64 {
    Latencies::new(values.to_vec())
        .percentile(0.5)
        .expect("median of an empty list")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_a_hand_computed_sample() {
        // 1..=1000 shuffled: nearest rank of p50 is the 500th value, of p99
        // the 990th, leaving exactly ten samples beyond it.
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        xs.swap(3, 700);
        let l = Latencies::new(xs);
        assert_eq!(l.percentile(0.5), Some(500.0));
        assert_eq!(l.percentile(0.99), Some(990.0));
        assert_eq!(l.tail(0.99), Some(990.0));
        assert_eq!(l.percentile(1.0), Some(1000.0));
        assert_eq!(l.percentile(0.0), Some(1.0));
    }

    #[test]
    fn small_hand_sample() {
        // Sorted: 2 3 5 7 11 13 17 19 23 29. p50 → rank 5 → 11;
        // p90 → rank 9 → 23; p25 → rank ceil(2.5) = 3 → 5.
        let l = Latencies::new(vec![29.0, 2.0, 23.0, 3.0, 19.0, 5.0, 17.0, 7.0, 13.0, 11.0]);
        assert_eq!(l.percentile(0.5), Some(11.0));
        assert_eq!(l.percentile(0.9), Some(23.0));
        assert_eq!(l.percentile(0.25), Some(5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let l = Latencies::new((1..=999).map(f64::from).collect());
        // rank(999, 0.99) = 990, so only nine samples lie beyond it.
        assert_eq!(l.percentile(0.99), Some(990.0));
        assert_eq!(l.tail(0.99), None);
        assert_eq!(l.tail(0.5), Some(500.0));
        assert_eq!(Latencies::new(vec![]).tail(0.5), None);
    }
}
